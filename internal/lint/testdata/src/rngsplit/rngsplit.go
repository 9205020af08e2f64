// rng-stream fixture: Split and SplitSeed labels must be named constants, and named
// label constants must not alias one another.
package rngsplit

import "rng"

const (
	labelA uint64 = iota + 1
	labelB
)

// aliasA collides with labelA — both are used as Split labels below.
const aliasA uint64 = 1

// Use exercises the legal and illegal label shapes.
func Use(i int) {
	root := rng.New(7)
	_ = root.Split(1)         // want "rng-stream: .*label 1 is a numeric literal"
	_ = root.Split(uint64(2)) // want "rng-stream: .*label 2 is a numeric literal"
	_ = root.Split(labelA)
	_ = root.Split(labelB, uint64(i))
	_ = root.Split(aliasA) // want "rng-stream: stream label constants aliasA, labelA all equal 1"
	_ = rng.SplitSeed(7, labelB, uint64(i))
	_ = rng.SplitSeed(7, 3) // want "rng-stream: .*label 3 is a numeric literal"
}
