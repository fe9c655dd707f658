// Package sim is exhaustive golden testdata: module enums with and
// without sentinels, covered, defaulted and uncovered switches,
// enum-indexed arrays and keyed tables over an enum.
package sim

// Op is a module enum with a trailing sentinel.
type Op uint8

const (
	Nop Op = iota
	Add
	Sub
	Halt

	NumOps // sentinel
)

// Alias shares Add's value: covering Add covers both names.
const Alias = Add

// Mode is a string-backed enum without a sentinel.
type Mode string

const (
	ModeOoO Mode = "ooo"
	ModeVR  Mode = "vr"
)

func covered(o Op) int {
	switch o {
	case Nop:
		return 0
	case Add, Sub:
		return 1
	case Halt:
		return 2
	}
	return -1
}

func defaulted(o Op) int {
	switch o {
	case Nop:
		return 0
	default:
		return 1
	}
}

func missing(o Op) int {
	switch o { // want `switch over sim\.Op is not exhaustive: missing Halt, Sub`
	case Nop, Add:
		return 0
	}
	return -1
}

func missingMode(m Mode) int {
	switch m { // want `switch over sim\.Mode is not exhaustive: missing ModeVR`
	case ModeOoO:
		return 0
	}
	return -1
}

func suppressedSwitch(o Op) int {
	//vrlint:allow exhaustive -- testdata: remaining ops handled by caller
	switch o {
	case Nop:
		return 0
	}
	return -1
}

func nonConstCase(o, x Op) int {
	switch o { // non-constant case expression: coverage is not decidable
	case x:
		return 0
	}
	return -1
}

func tagless(o Op) int {
	switch { // tagless switches are not enum coverage
	case o == Nop:
		return 0
	}
	return -1
}

// Arrays indexed by Op must be sized by its sentinel.
var good [NumOps]string

var bad [3]string

func index(o Op) string {
	return good[o]
}

func indexBad(o Op) string {
	return bad[o] // want `array of length 3 indexed by sim\.Op should be sized by NumOps \(4\)`
}

// Keyed tables sized by the sentinel need an element per member; Alias
// covers Add.
var fullTable = [NumOps]string{Nop: "nop", Alias: "add", Sub: "sub", Halt: "halt"}

var partialTable = [NumOps]string{ // want `table over sim\.Op has no element for Halt, Sub \(add the rows\)`
	Nop: "nop",
	Add: "add",
}

// A hand-sized or positional literal is not a table.
var shortTable = [2]string{Nop: "nop"}

var positional = [NumOps]string{"nop", "add", "sub"}
