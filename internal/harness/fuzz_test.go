package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
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

// FuzzConfigValidate drives arbitrary run configurations through the
// supervised entry point. The property: no input — valid or not — may
// escape as a panic. Invalid configurations must be rejected by Validate
// as typed setup errors; validated ones must run (or fail) cleanly.
func FuzzConfigValidate(f *testing.F) {
	f.Add(5, 350, 128, 128, 72, 15, 32, 24, 32<<10, 8, 64, 8)
	f.Add(1, 1, 1, 1, 1, 1, 1, 1, 64, 1, 1, 1)
	f.Add(0, -3, 12, 0, 99, 2, 4, 0, 3*64, 3, 0, -5)
	f.Add(65, 1<<21, -1, 7, 7, 2000, 9, 1<<17, 1<<20, 1<<11, 1<<13, 2)
	f.Fuzz(func(t *testing.T, width, rob, iq, lq, sq, depth, fbuf, mshrs, l1size, l1ways, vl, lanes int) {
		rc := DefaultRunConfig(TechVR)
		rc.CPU.Width = width
		rc.CPU.ROBSize = rob
		rc.CPU.IQSize = iq
		rc.CPU.LQSize = lq
		rc.CPU.SQSize = sq
		rc.CPU.FrontendDepth = depth
		rc.CPU.FetchBufSize = fbuf
		rc.Mem.MSHRs = mshrs
		// Bound the geometry so a *valid* fuzzed cache stays small; the
		// validator still sees the full range of invalid shapes.
		rc.Mem.L1SizeBytes = l1size % (1 << 22)
		rc.Mem.L1Ways = l1ways % (1 << 11)
		rc.VR.VectorLength = vl
		rc.VR.LaneWidth = lanes
		// Keep even degenerate-but-valid machines cheap and hang-free: a
		// 64-byte single-way L1 passes validation but runs at huge CPI, so
		// the cycle caps must keep each execution well under a second.
		rc.MaxBudget = 500
		rc.WatchdogCycles = 20_000
		rc.CPU.MaxCycles = 300_000

		_, err := RunSupervised(workloads.MicroStream(256), rc)
		if err == nil {
			return
		}
		var re *RunError
		if errors.As(err, &re) && re.Stack != nil {
			t.Fatalf("config escaped validation and panicked: %v", err)
		}
	})
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
	hb := frame(wireMsg{Type: msgHeartbeat, ID: 1, HeapAlloc: 123})
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
