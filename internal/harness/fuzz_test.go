package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vrsim/internal/core"
	"vrsim/internal/cpu"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/prefetch"
	"vrsim/internal/workloads"
)

// randomKernel generates a structured random program: a counted loop of
// random ALU dataflow, bounded loads from an initialized region,
// data-dependent branches, and stores — the shapes that have historically
// broken speculative pipelines.
func randomKernel(rng *rand.Rand) (*isa.Program, map[uint64]uint64, []uint64) {
	baseA := uint64(0x100000)
	baseB := uint64(0x900000)
	init := map[uint64]uint64{}
	for i := 0; i < 512; i++ {
		init[baseA+uint64(i)*8] = rng.Uint64() % 4096
	}
	b := isa.NewBuilder("fuzz")
	b.Li(1, int64(baseA))
	b.Li(2, int64(baseB))
	b.Li(3, 0)  // i
	b.Li(4, 80) // iterations
	for r := isa.Reg(5); r < 13; r++ {
		b.Li(r, int64(rng.Intn(1000)))
	}
	b.Label("loop")
	nOps := 8 + rng.Intn(10)
	for k := 0; k < nOps; k++ {
		dst := isa.Reg(5 + rng.Intn(8))
		s1 := isa.Reg(5 + rng.Intn(8))
		s2 := isa.Reg(5 + rng.Intn(8))
		switch rng.Intn(10) {
		case 0:
			b.Add(dst, s1, s2)
		case 1:
			b.Sub(dst, s1, s2)
		case 2:
			b.Mul(dst, s1, s2)
		case 3:
			b.Xor(dst, s1, s2)
		case 4:
			b.AndI(13, s1, 511)
			b.Ld(dst, 1, 13, 3, 0) // bounded load from A
		case 5:
			b.St(s1, 2, 3, 3, 0) // store to B[i]
		case 6:
			// Data-dependent forward skip.
			lbl := labelName(k)
			b.AndI(13, s1, 1)
			b.Beq(13, 0, lbl)
			b.AddI(dst, dst, 3)
			b.Label(lbl)
		case 7:
			b.Min(dst, s1, s2)
		case 8:
			b.ShrI(dst, s1, int64(rng.Intn(8)))
		case 9:
			b.Div(dst, s1, s2)
		}
	}
	b.AddI(3, 3, 1)
	b.Blt(3, 4, "loop")
	b.Halt()
	watch := make([]uint64, 80)
	for i := range watch {
		watch[i] = baseB + uint64(i)*8
	}
	return b.MustBuild(), init, watch
}

var labelCounter int

func labelName(k int) string {
	labelCounter++
	return "skip" + string(rune('a'+k%26)) + string(rune('0'+labelCounter%10)) +
		string(rune('a'+labelCounter/10%26))
}

// runEngineFuzz executes the program on the interpreter and on the timing
// model with the given engine, and compares architectural state.
func runEngineFuzz(t *testing.T, p *isa.Program, init map[uint64]uint64, watch []uint64,
	attach func(c *cpu.Core)) {
	t.Helper()
	dI := mem.NewBacking()
	for a, v := range init {
		dI.Store(a, v)
	}
	it := isa.NewInterp(p, dI)
	if err := it.Run(10_000_000); err != nil {
		t.Fatal(err)
	}

	dC := mem.NewBacking()
	for a, v := range init {
		dC.Store(a, v)
	}
	h := mem.MustHierarchy(mem.DefaultConfig())
	h.Data = dC
	h.SetPrefetcher(prefetch.NewStreamPrefetcher(16, 4))
	c := cpu.New(cpu.DefaultConfig(), p, dC, h)
	if attach != nil {
		attach(c)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	regs := c.ArchRegs()
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != it.Regs[r] {
			t.Fatalf("r%d: core=%d interp=%d", r, regs[r], it.Regs[r])
		}
	}
	for _, a := range watch {
		if g, w := dC.Load(a), dI.Load(a); g != w {
			t.Fatalf("mem[%#x]: core=%d interp=%d", a, g, w)
		}
	}
}

// fuzzKernel is FuzzConfigValidate's workload. At the fuzzer's budget it
// starts every engine (TestFuzzKernelStartsEveryEngine), so the engines'
// fields are fuzzed against code that runs.
var fuzzKernel = workloads.Kangaroo(12, 1500)

// fuzzTechs are the techniques FuzzConfigValidate's first argument picks
// from, modulo their count.
var fuzzTechs = append(AllTechniques(), TechRA)

// fuzzRunConfig returns the default configuration under tech with the
// fuzzer's budget and cycle caps. Degenerate-but-valid machines (a 64-byte
// single-way L1, a one-entry ROB) run at huge CPI, so the caps keep each
// execution well under a second.
func fuzzRunConfig(tech Technique) RunConfig {
	rc := DefaultRunConfig(tech)
	rc.MaxBudget = 500
	rc.WatchdogCycles = 20_000
	rc.CPU.MaxCycles = 300_000
	return rc
}

// fuzzFields returns a pointer to every integer field of rc's core, cache,
// VR, PRE and RA configurations that a Validate bounds, plus the
// predictor's kind and geometry, in FuzzConfigValidate's argument order
// after the technique. The fault configuration is not fuzzed.
func fuzzFields(rc *RunConfig) []any {
	c, m := &rc.CPU, &rc.Mem
	fs := []any{&c.Width, &c.ROBSize, &c.IQSize, &c.LQSize, &c.SQSize, &c.FrontendDepth, &c.FetchBufSize}
	for fu := isa.FUNone + 1; fu < isa.NumFUClasses; fu++ {
		fs = append(fs, &c.FUCount[fu], &c.FULatency[fu])
	}
	return append(fs, &c.CheckInterval, &c.Predictor.Kind, &c.Predictor.LogSize, &c.Predictor.HistoryBits,
		&m.L1SizeBytes, &m.L1Ways, &m.L1Latency,
		&m.L2SizeBytes, &m.L2Ways, &m.L2Latency,
		&m.L3SizeBytes, &m.L3Ways, &m.L3Latency, &m.MSHRs,
		&rc.VR.VectorLength, &rc.VR.LaneWidth, &rc.VR.StrideEntries,
		&rc.VR.MaxChainInstrs, &rc.VR.MaxInstrsPerActivation,
		&rc.PRE.MaxInstrsPerActivation, &rc.RA.MaxInstrsPerActivation)
}

// configFuzzTarget is FuzzConfigValidate's target type: the technique
// index, then one parameter per fuzzFields entry, in its order and of its
// type. The corpus files under testdata/fuzz/FuzzConfigValidate follow it.
// go vet requires f.Fuzz's argument to have a static function type, so the
// type is declared here rather than built from fuzzFields. Its parameter
// names are documentation only: the target stores arguments by position
// through fuzzFields, and a type that drifts from fuzzFields fails every
// seed when reflect sets the field.
type configFuzzTarget = func(t *testing.T, tech uint8,
	width, rob, iq, lq, sq, frontendDepth, fetchBuf int,
	intALUs int, intALULat uint64, intMuls int, intMulLat uint64, intDivs int, intDivLat uint64,
	fpAdds int, fpAddLat uint64, fpMuls int, fpMulLat uint64, fpDivs int, fpDivLat uint64,
	memPorts int, memLat uint64, branchUnits int, branchLat uint64,
	checkInterval uint64, predictor string, predictorLog int, historyBits uint,
	l1Size, l1Ways int, l1Lat uint64, l2Size, l2Ways int, l2Lat uint64,
	l3Size, l3Ways int, l3Lat uint64, mshrs int,
	vectorLength, laneWidth, strideEntries int, maxChainInstrs, vrMaxInstrs uint64,
	preMaxInstrs, raMaxInstrs uint64)

// addConfigSeed adds rc to f's seed corpus as configFuzzTarget arguments.
func addConfigSeed(f *testing.F, rc RunConfig) {
	args := []any{uint8(slices.Index(fuzzTechs, rc.Tech))}
	for _, p := range fuzzFields(&rc) {
		args = append(args, reflect.ValueOf(p).Elem().Interface())
	}
	f.Add(args...)
}

// seedEdges adds one seed per value: the default configuration under
// tech with the field at returns set to that value.
func seedEdges[T any](f *testing.F, tech Technique, at func(*RunConfig) *T, vals ...T) {
	for _, v := range vals {
		rc := fuzzRunConfig(tech)
		*at(&rc) = v
		addConfigSeed(f, rc)
	}
}

// buildable reports whether a configuration Validate admits is small
// enough to build at every exec. Validate admits a 1M-entry ROB (282 MiB)
// and 1 GiB caches; such machines are validated but not run.
func buildable(rc *RunConfig) bool {
	c, m := &rc.CPU, &rc.Mem
	return max(c.ROBSize, c.FetchBufSize, rc.VR.StrideEntries) <= 1<<14 &&
		max(m.L1SizeBytes, m.L2SizeBytes, m.L3SizeBytes) <= 64<<20 &&
		c.Predictor.LogSize <= 20
}

// FuzzConfigValidate drives arbitrary run configurations through the
// supervised entry point under all six techniques. The property: no input
// — valid or not — may escape as a panic. Invalid configurations must be
// rejected by Validate as typed setup errors; validated ones must run (or
// fail) cleanly. This is the guard for every size and divisor the
// simulator derives from a validated configuration.
func FuzzConfigValidate(f *testing.F) {
	for _, tech := range fuzzTechs {
		addConfigSeed(f, fuzzRunConfig(tech))
	}
	// Each bound a Validate enforces, seeded just outside and just inside,
	// under the technique whose code reads the field.
	ints := func(at func(*RunConfig) *int, lo, hi int) { seedEdges(f, TechVR, at, lo-1, lo, hi, hi+1) }
	ints(func(rc *RunConfig) *int { return &rc.CPU.Width }, 1, 64)
	ints(func(rc *RunConfig) *int { return &rc.CPU.ROBSize }, 1, 1<<20)
	ints(func(rc *RunConfig) *int { return &rc.CPU.IQSize }, 1, 1<<20)
	ints(func(rc *RunConfig) *int { return &rc.CPU.LQSize }, 1, 1<<20)
	ints(func(rc *RunConfig) *int { return &rc.CPU.SQSize }, 1, 1<<20)
	ints(func(rc *RunConfig) *int { return &rc.CPU.FrontendDepth }, 1, 1<<10)
	ints(func(rc *RunConfig) *int { return &rc.CPU.FetchBufSize }, 1, 1<<20)
	for fu := isa.FUNone + 1; fu < isa.NumFUClasses; fu++ {
		ints(func(rc *RunConfig) *int { return &rc.CPU.FUCount[fu] }, 1, 1<<10)
		seedEdges(f, TechVR, func(rc *RunConfig) *uint64 { return &rc.CPU.FULatency[fu] }, 0, 1)
	}
	seedEdges(f, TechVR, func(rc *RunConfig) *uint64 { return &rc.CPU.CheckInterval }, 0, 1, 1<<30, 1<<30+1)
	seedEdges(f, TechVR, func(rc *RunConfig) *string { return &rc.CPU.Predictor.Kind }, "", "bimodal", "gshare")
	// clampLog's lower edge; its upper edge (24) is too large to build.
	seedEdges(f, TechVR, func(rc *RunConfig) *int { return &rc.CPU.Predictor.LogSize }, -1, 0)
	levels := []func(m *mem.Config) (size, ways *int, latency *uint64){
		func(m *mem.Config) (*int, *int, *uint64) { return &m.L1SizeBytes, &m.L1Ways, &m.L1Latency },
		func(m *mem.Config) (*int, *int, *uint64) { return &m.L2SizeBytes, &m.L2Ways, &m.L2Latency },
		func(m *mem.Config) (*int, *int, *uint64) { return &m.L3SizeBytes, &m.L3Ways, &m.L3Latency },
	}
	for _, level := range levels {
		// {size, ways}: a size of 0 and of one line, 1 GiB and 2 GiB, then
		// 0, 1, 1024 and 1025 ways over a 64 KiB level.
		for _, g := range [][2]int{{0, 1}, {64, 1}, {1 << 30, 1}, {2 << 30, 1},
			{64 << 10, 0}, {64 << 10, 1}, {64 << 10, 1 << 10}, {64 << 10, 1<<10 + 1}} {
			rc := fuzzRunConfig(TechVR)
			size, ways, _ := level(&rc.Mem)
			*size, *ways = g[0], g[1]
			addConfigSeed(f, rc)
		}
		seedEdges(f, TechVR, func(rc *RunConfig) *uint64 { _, _, lat := level(&rc.Mem); return lat }, 0, 1)
	}
	ints(func(rc *RunConfig) *int { return &rc.Mem.MSHRs }, 1, 1<<16)
	ints(func(rc *RunConfig) *int { return &rc.VR.VectorLength }, 1, 1<<12)
	ints(func(rc *RunConfig) *int { return &rc.VR.LaneWidth }, 1, 1<<12)
	ints(func(rc *RunConfig) *int { return &rc.VR.StrideEntries }, 1, 1<<20)
	seedEdges(f, TechVR, func(rc *RunConfig) *uint64 { return &rc.VR.MaxChainInstrs }, 0, 1)
	seedEdges(f, TechVR, func(rc *RunConfig) *uint64 { return &rc.VR.MaxInstrsPerActivation }, 0, 1)
	seedEdges(f, TechPRE, func(rc *RunConfig) *uint64 { return &rc.PRE.MaxInstrsPerActivation }, 0, 1)
	seedEdges(f, TechRA, func(rc *RunConfig) *uint64 { return &rc.RA.MaxInstrsPerActivation }, 0, 1)
	// The smallest valid VR machine: every core size, FU count, the MSHR
	// file, VectorLength and LaneWidth at 1, over a 64-byte 1-way L1.
	tiny := fuzzRunConfig(TechVR)
	c := &tiny.CPU
	c.Width, c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.FrontendDepth, c.FetchBufSize = 1, 1, 1, 1, 1, 1, 1
	for fu := isa.FUNone + 1; fu < isa.NumFUClasses; fu++ {
		c.FUCount[fu] = 1
	}
	tiny.Mem.L1SizeBytes, tiny.Mem.L1Ways, tiny.Mem.MSHRs = 64, 1, 1
	tiny.VR.VectorLength, tiny.VR.LaneWidth = 1, 1
	addConfigSeed(f, tiny)

	// The target stores its arguments through fuzzFields, so the seeds,
	// the corpus files and the fuzzed configuration follow one list.
	target := reflect.MakeFunc(reflect.TypeFor[configFuzzTarget](), func(args []reflect.Value) []reflect.Value {
		t := args[0].Interface().(*testing.T)
		rc := fuzzRunConfig(fuzzTechs[int(args[1].Uint())%len(fuzzTechs)])
		for i, p := range fuzzFields(&rc) {
			reflect.ValueOf(p).Elem().Set(args[i+2])
		}
		if rc.Validate() == nil && !buildable(&rc) {
			return nil
		}
		_, err := RunSupervised(fuzzKernel, rc)
		var re *RunError
		if errors.As(err, &re) && re.Stack != nil {
			t.Fatalf("config escaped validation and panicked: %v", err)
		}
		return nil
	})
	f.Fuzz(target.Interface().(configFuzzTarget))
}

// TestFuzzKernelStartsEveryEngine pins FuzzConfigValidate's kernel: at the
// fuzzer's budget and the default configuration, VR must issue gathers,
// PRE and RA must activate and IMP must prefetch. A kernel that starts no
// engine would leave the engines' fields fuzzed against dead code.
func TestFuzzKernelStartsEveryEngine(t *testing.T) {
	run := func(tech Technique) Result {
		t.Helper()
		res, err := Run(fuzzKernel, fuzzRunConfig(tech))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if n := run(TechVR).VRStats.GatherLoads; n == 0 {
		t.Error("VR issued no gather loads")
	}
	if n := run(TechPRE).PREStats.Activations; n == 0 {
		t.Error("PRE never activated")
	}
	if n := run(TechRA).RAStats.Activations; n == 0 {
		t.Error("classic runahead never activated")
	}
	if n := run(TechIMP).PrefetchIssued[mem.SrcIMP]; n == 0 {
		t.Error("IMP issued no prefetches")
	}
}

// FuzzJournalDecode drives arbitrary byte images through the campaign
// journal decoder. The property: no input may panic, and every record the
// decoder does return must be structurally valid (a cell key plus exactly
// one outcome) — corruption degrades to "re-simulate that cell", never to
// a bad replay. A journal that round-trips an intact prefix must also
// yield exactly that prefix's records.
func FuzzJournalDecode(f *testing.F) {
	hdr, _ := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion,
		Fingerprint: Fingerprint{Module: "vrsim@test", MaxBudget: 1000}})
	rec, _ := json.Marshal(Record{Exp: "F9", Index: 0, Workload: "camel", Tech: "ooo",
		Attempts: 1, Result: &Result{Workload: "camel", Tech: TechOoO, Cycles: 10, Instrs: 5}})
	errRec, _ := json.Marshal(Record{Exp: "F9", Index: 1, Workload: "hj2", Tech: "vr",
		Attempts: 2, Err: "hj2/vr [run]: boom"})
	full := string(hdr) + "\n" + string(rec) + "\n" + string(errRec) + "\n"
	f.Add(full)
	f.Add(full[:len(full)/2])                                       // torn mid-record
	f.Add(string(hdr) + "\n")                                       // header only
	f.Add(string(hdr) + "\n{\"Exp\":\"F9\"}\n")                     // structurally invalid record
	f.Add(string(hdr) + "\nnot json at all\n" + string(rec) + "\n") // corrupt middle
	f.Add("")
	f.Add("{}")
	f.Add("\x00\xff garbage")
	f.Fuzz(func(t *testing.T, data string) {
		hdr, recs, err := decodeJournal([]byte(data))
		if err != nil {
			return
		}
		if hdr.Journal != journalMagic || hdr.Version != journalVersion {
			t.Fatalf("decoder accepted a non-journal header: %+v", hdr)
		}
		for i := range recs {
			if !recs[i].valid() {
				t.Fatalf("decoder returned invalid record %d: %+v", i, recs[i])
			}
		}
	})
}

// TestFuzzEnginesMatchInterpreter: 20 random kernels, each run under no
// engine, PRE, classic RA, and VR — every configuration must match the
// functional interpreter bit-for-bit.
func TestFuzzEnginesMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		p, init, watch := randomKernel(rng)
		runEngineFuzz(t, p, init, watch, nil)
		runEngineFuzz(t, p, init, watch, func(c *cpu.Core) {
			c.AttachEngine(core.NewPRE(core.DefaultPREConfig()))
		})
		runEngineFuzz(t, p, init, watch, func(c *cpu.Core) {
			c.AttachEngine(core.NewClassicRA(core.DefaultRAConfig()))
		})
		runEngineFuzz(t, p, init, watch, func(c *cpu.Core) {
			cfg := core.DefaultVRConfig()
			cfg.MinInterval = 0 // trigger as often as possible
			cfg.LoopBoundAware = trial%2 == 0
			vr := core.NewVR(cfg)
			vr.Bind(c)
		})
	}
}

// FuzzWorkerProtocol drives arbitrary byte streams through the
// process-isolation frame decoder exactly the way a worker's supervisor
// consumes them: frame after frame, decode, validate against the cell id
// in flight. The property: no input may panic or over-allocate, and
// every rejection — truncated frames, oversized or zero lengths, garbage
// JSON, duplicate or out-of-order cell ids, results carrying both or
// neither outcome — must classify under the ErrWorkerProtocol sentinel
// the crash taxonomy keys on, never as a bare error.
func FuzzWorkerProtocol(f *testing.F) {
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hb := frame(wireMsg{Type: msgHeartbeat, ID: 1, RSS: 123 << 20})
	res := frame(wireMsg{Type: msgResult, ID: 1,
		Result: &Result{Workload: "camel", Tech: TechOoO, Cycles: 10, Instrs: 5}})
	failRes := frame(wireMsg{Type: msgResult, ID: 1,
		Err: &wireError{Workload: "camel", Tech: TechVR, Phase: "run", Msg: "boom", Timeout: true}})
	f.Add(append(append([]byte{}, hb...), res...), 1) // healthy beat-then-result stream
	f.Add(failRes, 1)
	f.Add(res, 7)                                      // result for a cell not in flight
	f.Add(append(append([]byte{}, res...), res...), 1) // duplicate result
	f.Add(hb[:3], 1)                                   // truncated length prefix
	f.Add(res[:len(res)-2], 1)                         // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}, 1)      // oversized length
	f.Add([]byte{0, 0, 0, 0}, 1)                       // zero length
	f.Add([]byte{0, 0, 0, 2, '{', ']'}, 1)             // garbage JSON
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, wantID int) {
		r := bytes.NewReader(data)
		sawResult := false
		for {
			payload, err := readFrame(r)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrWorkerProtocol) {
					t.Fatalf("frame rejection lost the protocol sentinel: %v", err)
				}
				return
			}
			if len(payload) > maxFrameLen {
				t.Fatalf("decoder returned a %d-byte payload past the %d bound", len(payload), maxFrameLen)
			}
			m, err := decodeMsg(payload)
			if err != nil {
				if !errors.Is(err, ErrWorkerProtocol) {
					t.Fatalf("decode rejection lost the protocol sentinel: %v", err)
				}
				return
			}
			if sawResult {
				// Anything after the in-flight cell's result belongs to
				// no dispatch; the supervisor must classify it.
				if err := validateMsg(m, wantID+1); err == nil && m.ID == wantID {
					t.Fatalf("duplicate frame for cell %d validated against the next dispatch", wantID)
				}
				return
			}
			if err := validateMsg(m, wantID); err != nil {
				if !errors.Is(err, ErrWorkerProtocol) {
					t.Fatalf("validation rejection lost the protocol sentinel: %v", err)
				}
				return
			}
			if m.Type == msgResult {
				if (m.Result != nil) == (m.Err != nil) {
					t.Fatalf("validated result carries result=%v err=%v", m.Result != nil, m.Err != nil)
				}
				sawResult = true
			}
		}
	})
}
