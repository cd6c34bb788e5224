package daslib

// Test helpers shared with the external daslib_test package.
var (
	RandFloats  = randFloats
	RandComplex = randComplex
)
