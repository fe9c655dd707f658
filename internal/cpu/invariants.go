package cpu

import "fmt"

// CheckInvariants validates the core's structural invariants: reorder
// buffer geometry, scheduler-list liveness, load/store queue accounting
// and program-order sequencing. It is the white-box half of the runtime
// invariant checker (internal/oracle wraps it with memory-system and
// monotonicity checks) and is intended to run at the RunChecked cadence —
// it scans every in-flight instruction, so it is far too expensive for
// every cycle but negligible every few thousand.
//
// The checks are written against state as it stands *between* cycles,
// where RunChecked's hook fires.
func (c *Core) CheckInvariants() error {
	cfg := &c.cfg
	if c.head < 0 || c.head >= cfg.ROBSize {
		return fmt.Errorf("ROB head %d outside ring [0,%d)", c.head, cfg.ROBSize)
	}
	if c.count < 0 || c.count > cfg.ROBSize {
		return fmt.Errorf("ROB occupancy %d outside [0,%d]", c.count, cfg.ROBSize)
	}
	if c.iqLen < 0 || c.iqLen > cfg.IQSize {
		return fmt.Errorf("issue queue holds %d entries, capacity %d", c.iqLen, cfg.IQSize)
	}
	if c.fqLen < 0 || c.fqLen > cfg.FetchBufSize {
		return fmt.Errorf("front queue holds %d entries, capacity %d", c.fqLen, cfg.FetchBufSize)
	}
	if c.stLen < 0 || c.stLen > cfg.SQSize {
		return fmt.Errorf("store ring holds %d entries, capacity %d", c.stLen, cfg.SQSize)
	}
	if c.ldLen < 0 || c.ldLen > cfg.LQSize {
		return fmt.Errorf("issued-load set holds %d entries, capacity %d", c.ldLen, cfg.LQSize)
	}
	if c.lqCount < 0 || c.lqCount > cfg.LQSize {
		return fmt.Errorf("load queue count %d outside [0,%d]", c.lqCount, cfg.LQSize)
	}
	if c.sqCount < 0 || c.sqCount > cfg.SQSize {
		return fmt.Errorf("store queue count %d outside [0,%d]", c.sqCount, cfg.SQSize)
	}

	// Recount the window: the LQ/SQ counters must agree with the live ROB
	// contents, and sequence numbers must be strictly increasing in
	// program order.
	loads, stores, waiting := 0, 0, 0
	var prevSeq uint64
	for i := 0; i < c.count; i++ {
		e := &c.rob[c.slot(i)]
		if i > 0 && e.seq <= prevSeq {
			return fmt.Errorf("ROB order broken: entry %d seq %d follows seq %d", i, e.seq, prevSeq)
		}
		prevSeq = e.seq
		if e.in.IsLoad() {
			loads++
		}
		if e.in.IsStore() {
			stores++
		}
		if !e.issued && !e.done {
			waiting++
		}
	}
	if loads != c.lqCount {
		return fmt.Errorf("load queue count %d, but ROB holds %d loads", c.lqCount, loads)
	}
	if stores != c.sqCount {
		return fmt.Errorf("store queue count %d, but ROB holds %d stores", c.sqCount, stores)
	}

	// Scheduler lists may only reference live window slots, and the typed
	// lists must reference instructions of their type.
	if waiting != c.iqLen {
		return fmt.Errorf("issue queue holds %d entries, but the ROB holds %d unissued instructions", c.iqLen, waiting)
	}
	prevOrd := -1
	for i := 0; i < c.stLen; i++ {
		s := c.storeAt(i)
		ord := c.ordinal(s)
		if ord >= c.count {
			return fmt.Errorf("store ring references dead ROB slot %d", s)
		}
		if !c.rob[s].in.IsStore() {
			return fmt.Errorf("store ring slot %d holds a non-store (%s)", s, c.rob[s].in.Op)
		}
		// O(1) retire and squash both depend on the ring staying in
		// program order (oldest at the front).
		if ord <= prevOrd {
			return fmt.Errorf("store ring out of program order at index %d (slot %d)", i, s)
		}
		prevOrd = ord
	}
	for i, s := range c.ldIssued[:c.ldLen] {
		if c.ordinal(s) >= c.count {
			return fmt.Errorf("issued-load set references dead ROB slot %d", s)
		}
		e := &c.rob[s]
		if !e.in.IsLoad() || !e.issued {
			return fmt.Errorf("issued-load set slot %d holds op=%s issued=%v", s, e.in.Op, e.issued)
		}
		if c.ldPos[s] != i {
			return fmt.Errorf("issued-load position index stale: slot %d at index %d, ldPos says %d", s, i, c.ldPos[s])
		}
	}
	return c.checkScheduler()
}

// tallyOnStack is the largest reorder buffer whose scheduler recount
// keeps its tallies on the stack: every ROB size the experiments sweep.
const tallyOnStack = 512

// checkScheduler validates the event-driven scheduler. Every unissued
// instruction waits in exactly one place: on its producers, with a
// pending count equal both to its required sources whose producer has
// not issued and to the links naming it on dependent lists; in the wake
// queue; or in the ready list. Every issued store still missing its value
// waits for it in exactly one place: on the value's producer or in the
// wake queue. The wake queue must be heap-ordered and the ready list in
// program order, and both may only reference live slots.
func (c *Core) checkScheduler() error {
	n := c.cfg.ROBSize
	live := func(s int) bool { return s >= 0 && s < n && c.ordinal(s) < c.count }
	if c.readyLen < 0 || c.readyLen > len(c.ready) {
		return fmt.Errorf("ready list holds %d entries, capacity %d", c.readyLen, len(c.ready))
	}
	if c.wakeLen < 0 || c.wakeLen > len(c.wakeq) {
		return fmt.Errorf("wake queue holds %d entries, capacity %d", c.wakeLen, len(c.wakeq))
	}
	// Per-slot tallies of wake-queue and ready-list entries, and of
	// dependent-list links naming the slot as consumer. They live on the
	// stack for every window up to tallyOnStack entries, so a sweep
	// allocates nothing; a larger window allocates them each sweep.
	var onStack [2 * tallyOnStack]int
	tally := onStack[:]
	if 2*n > len(tally) {
		tally = make([]int, 2*n)
	}
	queued, links := tally[:n], tally[n:2*n]
	var prevSeq uint64
	for i, s := range c.ready[:c.readyLen] {
		if !live(s) {
			return fmt.Errorf("ready list references dead ROB slot %d", s)
		}
		e := &c.rob[s]
		if e.issued || e.done {
			return fmt.Errorf("ready list holds slot %d, which has issued", s)
		}
		if i > 0 && e.seq <= prevSeq {
			return fmt.Errorf("ready list out of program order at index %d (slot %d)", i, s)
		}
		prevSeq = e.seq
		queued[s]++
	}
	for i, w := range c.wakeq[:c.wakeLen] {
		if !live(w.slot) {
			return fmt.Errorf("wake queue references dead ROB slot %d", w.slot)
		}
		if i > 0 && c.wakeq[(i-1)/2].at > w.at {
			return fmt.Errorf("wake queue out of heap order at index %d (slot %d)", i, w.slot)
		}
		queued[w.slot]++
	}
	for i := 0; i < c.count; i++ {
		s := c.slot(i)
		walked := 0
		for l := c.rob[s].deps; l != noLink; l = c.depNext[l] {
			if walked++; walked > len(c.depNext) || l < 0 || l >= len(c.depNext) {
				return fmt.Errorf("dependent list of slot %d is corrupt at link %d", s, l)
			}
			if d := l >> 2; !live(d) || c.ordinal(d) <= i {
				return fmt.Errorf("dependent list of slot %d links slot %d, which is dead or not younger", s, d)
			}
			links[l>>2]++
		}
	}
	for i := 0; i < c.count; i++ {
		s := c.slot(i)
		e := &c.rob[s]
		switch {
		case !e.issued && !e.done:
			want := 0
			need := e.nsrc
			if e.in.IsStore() {
				need--
			}
			for k := 0; k < need && k < len(e.srcRob); k++ {
				if p := e.srcRob[k]; live(p) && c.rob[p].seq == e.srcSeq[k] && !c.rob[p].issued {
					want++
				}
			}
			if e.pending != want || links[s] != want {
				return fmt.Errorf("slot %d waits on %d unissued producers, but its pending count is %d and %d link(s) name it",
					s, want, e.pending, links[s])
			}
			places := queued[s]
			if want > 0 {
				places++
			}
			if places != 1 {
				return fmt.Errorf("unissued slot %d waits in %d places", s, places)
			}
		case !e.done:
			if places := queued[s] + links[s]; places != 1 {
				return fmt.Errorf("store slot %d waits for its value in %d places", s, places)
			}
		default:
			if queued[s]+links[s] != 0 {
				return fmt.Errorf("completed slot %d is still scheduled", s)
			}
		}
	}
	return nil
}
