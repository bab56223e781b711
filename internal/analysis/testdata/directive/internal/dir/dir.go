// Package dir exercises malformed hetvet directives: each one below
// is itself reported under the pseudo-check "directive".
package dir

//hetvet:ignore lockio
func MissingReason() {}

//hetvet:ignore bogus because the check does not exist
func UnknownCheck() {}

//hetvet:ignore
func Empty() {}

// hetvet:ignore lockio near miss: a space after the slashes
func SpacedDirective() {}

/*hetvet:ignore lockio near miss: a block comment*/
func BlockComment() {}

//HETVET:ignore lockio near miss: upper case
func UpperCase() {}

//hetvet:frobnicate the verb does not exist
func UnknownVerb() {}

//hetvet:coldpath a retired verb stays a loud finding
func RetiredVerb() {}

//hetvet:ignore errdiscard a retired checker's waiver is stale, not silent
func RetiredCheck() {}
