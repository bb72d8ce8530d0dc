package interp

// Hooks for package interp_test, which hosts the parity tests whose
// imports (synth/d2c, httpapi) themselves import interp.

// Reference is the tree-walking reference emulator (walker_test.go).
type Reference = walker

var (
	NewReference = newWalker
	DiffSuite    = diffSuite
)
