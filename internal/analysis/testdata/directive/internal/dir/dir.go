// Package dir exercises malformed hetvet directives: each one below
// is itself reported under the pseudo-check "directive".
package dir

//hetvet:ignore errdiscard
func MissingReason() {}

//hetvet:ignore bogus because the check does not exist
func UnknownCheck() {}

//hetvet:ignore
func Empty() {}

// hetvet:ignore errdiscard near miss: a space after the slashes
func SpacedDirective() {}

/*hetvet:ignore errdiscard near miss: a block comment*/
func BlockComment() {}

//HETVET:ignore errdiscard near miss: upper case
func UpperCase() {}

//hetvet:frobnicate the verb does not exist
func UnknownVerb() {}

//hetvet:coldpath a retired verb stays a loud finding
func RetiredVerb() {}
