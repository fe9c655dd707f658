package mem

// DerivedStats are the headline memory metrics the harness reports.
type DerivedStats struct {
	L1MissRate   float64 // L1-D misses / accesses
	LLCMPKI      float64 // L3 misses per kilo-instruction
	MLP          float64 // mean MSHR entries in flight per cycle
	DRAMAvgLat   float64 // mean DRAM latency in cycles
	DRAMUtil     float64 // DRAM channel busy fraction
	TotalOffChip uint64  // lines fetched from DRAM
}

// Derive computes summary metrics of the caches, the MSHR file and the
// DRAM given the instruction and cycle counts of the run that produced
// them.
func (h *Hierarchy) Derive(instructions, cycles uint64) DerivedStats {
	d := DerivedStats{MLP: h.MSHR.AvgOccupancy(cycles)}
	if acc := h.L1D.Hits + h.L1D.Misses; acc > 0 {
		d.L1MissRate = float64(h.L1D.Misses) / float64(acc)
	}
	if instructions > 0 {
		d.LLCMPKI = float64(h.L3.Misses) / float64(instructions) * 1000
	}
	if cycles > 0 {
		d.DRAMUtil = float64(h.DRAM.BusyCycles) / float64(cycles)
	}
	d.DRAMAvgLat = h.DRAM.AvgLatency()
	d.TotalOffChip = h.DRAM.Accesses
	return d
}
