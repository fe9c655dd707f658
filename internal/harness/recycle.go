// Cell recycling: a finished cell hands its memory hierarchy and the
// copy-on-write pages it dirtied on to later cells instead of leaving
// them to the collector. A default hierarchy holds 2.3 MB of cache
// columns, almost all of them the L3's, and store-heavy kernels dirty
// thousands of 4 KiB pages per cell; allocating and zeroing both is a
// large share of a short cell's run. Recycling is invisible in the
// results: a reset hierarchy cannot be told from a new one, and a reused
// page is overwritten before anything reads it.

package harness

import (
	"runtime"
	"slices"
	"sync"

	"vrsim/internal/mem"
)

// hierarchies is the process-wide list of reset hierarchies that
// newInstance takes from. It serves every sweep in the process, as a
// sync.Pool would, but the collector never empties it, so the
// allocation counts benchdiff gates stay put.
var hierarchies hierarchyList

// hierarchyList holds reset hierarchies, each with the configuration it
// was built from. It keeps at most as many as cells can run at once
// (GOMAXPROCS), dropping the oldest, so a campaign over many distinct
// configurations holds no more than one over a single configuration.
type hierarchyList struct {
	mu   sync.Mutex
	free []pooledHierarchy // guarded by mu
}

type pooledHierarchy struct {
	cfg mem.Config
	h   *mem.Hierarchy
}

// take returns a reset hierarchy built from a configuration equal to cfg,
// the most recently released first, or builds a new one.
func (l *hierarchyList) take(cfg mem.Config) (*mem.Hierarchy, error) {
	l.mu.Lock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if l.free[i].cfg == cfg {
			h := l.free[i].h
			l.free = slices.Delete(l.free, i, i+1)
			l.mu.Unlock()
			return h, nil
		}
	}
	l.mu.Unlock()
	return mem.NewHierarchy(cfg)
}

// put resets h, built from cfg, and lists it for a later cell.
func (l *hierarchyList) put(cfg mem.Config, h *mem.Hierarchy) {
	h.Reset()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) >= runtime.GOMAXPROCS(0) {
		l.free = slices.Delete(l.free, 0, 1)
	}
	l.free = append(l.free, pooledHierarchy{cfg, h})
}

// recycle hands a cell that finished without error on to later cells: the
// backing's and the shadow backing's dirtied pages go back to the
// workload's image, and the hierarchy to the list. A cell that failed is
// never recycled, since a panic or abort may have stopped it mid-update.
func (in *instance) recycle() {
	in.hier.Data.Release()
	if in.shadow != nil {
		in.shadow.Release()
	}
	hierarchies.put(in.rc.Mem, in.hier)
}
