package exec

import (
	"math/bits"
	"sync"
)

// Payload buffers are recycled across transfers and exchanges through
// power-of-two size classes: class c holds buffers of capacity 1<<c.
// The pools carry *[]byte, not []byte, so a Put does not box a slice
// header; whoever takes a buffer keeps the pointer and hands the same
// one back.
const (
	minBufClass = 6  // 64 B: smaller requests share the smallest class
	maxBufClass = 26 // 64 MiB: larger buffers are allocated exactly and never pooled
)

var bufPools [maxBufClass + 1]sync.Pool

// bufClass returns the smallest class whose buffers hold n bytes.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// getBuf returns a buffer of length n with unspecified contents.
func getBuf(n int) *[]byte {
	c := bufClass(n)
	if c > maxBufClass {
		b := make([]byte, n)
		return &b
	}
	if p, ok := bufPools[c].Get().(*[]byte); ok {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<c)
	return &b
}

// putBuf recycles a buffer from getBuf. The caller must hold the only
// live reference: the next getBuf overwrites it.
func putBuf(p *[]byte) {
	c := bufClass(cap(*p))
	if c > maxBufClass || cap(*p) != 1<<c {
		return
	}
	bufPools[c].Put(p)
}
