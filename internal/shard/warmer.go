package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// Class is one (n, D) network class whose duty-point lattice the warmer
// precomputes.
type Class struct {
	N int `json:"n"`
	D int `json:"d"`
}

// Warmer defaults.
const (
	DefaultWarmConcurrency = 2
	// DefaultCellBudget bounds the total predicted n×L footprint one
	// warm pass may build (Theorem 7 closed form, summed over points):
	// 2^24 cells is a few hundred MB of bitsets at the densities the
	// serving bound allows, well below a cache that will also take live
	// traffic.
	DefaultCellBudget = int64(1) << 24
)

// WarmerConfig configures a warm pass.
type WarmerConfig struct {
	// Classes are the (n, D) classes to walk.
	Classes []Class
	// MaxAlphaT / MaxAlphaR clip the duty-point lattice per class; 0
	// means no clip beyond the structural αT + αR <= n.
	MaxAlphaT, MaxAlphaR int
	// Concurrency bounds simultaneous constructions
	// (DefaultWarmConcurrency if 0).
	Concurrency int
	// CellBudget bounds the summed predicted n×L footprint
	// (DefaultCellBudget if 0; negative means unlimited).
	CellBudget int64
	// ByteBudget, when positive, stops the pass once Stats reports the
	// cache's resident bytes at or past it — the warmer must not evict
	// its way through a cache that live traffic is using.
	ByteBudget int64

	// Build constructs (and caches) one key, returning the schedule.
	// Typically serve.Service.Schedule's warm entry point.
	Build func(k schedcache.Key) (*core.Schedule, error)
	// Owns filters the lattice to this peer's keys (nil warms all —
	// the single-process deployment).
	Owns func(k schedcache.Key) bool
	// Stats feeds the byte budget (required when ByteBudget > 0).
	Stats func() schedcache.Stats
}

// WarmerSnapshot is the warmer's /metrics fragment. Planned counts every
// lattice point considered; each is then warmed, skipped (not owned, over
// a budget, or infeasible by closed form), or failed.
type WarmerSnapshot struct {
	Done             bool  `json:"done"`
	Classes          int   `json:"classes"`
	Planned          int64 `json:"planned"`
	Warmed           int64 `json:"warmed"`
	Failed           int64 `json:"failed"`
	SkippedOwnership int64 `json:"skippedOwnership"`
	SkippedBudget    int64 `json:"skippedBudget"`
	StoppedByBytes   bool  `json:"stoppedByBytes"`
	CellsPlanned     int64 `json:"cellsPlanned"`
	CellsWarmed      int64 `json:"cellsWarmed"`
}

// Warmer walks the reachable duty-point lattice of its configured classes
// at bounded concurrency, precomputing every owned key whose predicted
// footprint fits the budgets. Safe for one Run at a time; Snapshot may be
// called concurrently from the metrics path.
type Warmer struct {
	cfg WarmerConfig

	planned, warmed, failed         atomic.Int64
	skippedOwnership, skippedBudget atomic.Int64
	cellsPlanned, cellsWarmed       atomic.Int64
	done, stoppedByBytes            atomic.Bool
}

// NewWarmer validates cfg and applies defaults.
func NewWarmer(cfg WarmerConfig) (*Warmer, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: warmer needs a Build function")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("shard: warmer needs at least one (n, D) class")
	}
	for _, c := range cfg.Classes {
		if err := (schedcache.Key{N: c.N, D: c.D}).Validate(); err != nil {
			return nil, fmt.Errorf("shard: warm class (%d, %d): %w", c.N, c.D, err)
		}
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = DefaultWarmConcurrency
	}
	if cfg.CellBudget == 0 {
		cfg.CellBudget = DefaultCellBudget
	}
	if cfg.ByteBudget > 0 && cfg.Stats == nil {
		return nil, fmt.Errorf("shard: ByteBudget needs a Stats function")
	}
	return &Warmer{cfg: cfg}, nil
}

// Run walks the lattice until done, the context is cancelled, or the byte
// budget trips. It returns the context error on cancellation, nil
// otherwise (individual point failures are counted, not fatal).
func (w *Warmer) Run(ctx context.Context) error {
	defer w.done.Store(true)
	sem := make(chan struct{}, w.cfg.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()

	var cellsCommitted int64 // owner-goroutine only; snapshot via cellsPlanned
	for _, class := range w.cfg.Classes {
		base, err := w.warmBase(class)
		if err != nil {
			// The whole class is unreachable (no admissible field, over
			// the build budget, ...): count the failed base and move on.
			w.failed.Add(1)
			continue
		}
		maxT, maxR := w.cfg.MaxAlphaT, w.cfg.MaxAlphaR
		if maxT <= 0 || maxT > class.N {
			maxT = class.N
		}
		if maxR <= 0 || maxR > class.N {
			maxR = class.N
		}
		for alphaT := 1; alphaT <= maxT; alphaT++ {
			for alphaR := 1; alphaR <= maxR && alphaT+alphaR <= class.N; alphaR++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if w.overByteBudget() {
					w.stoppedByBytes.Store(true)
					return nil
				}
				k := schedcache.Key{N: class.N, D: class.D, AlphaT: alphaT, AlphaR: alphaR, Strategy: core.Sequential}
				w.planned.Add(1)
				if w.cfg.Owns != nil && !w.cfg.Owns(k) {
					w.skippedOwnership.Add(1)
					continue
				}
				cells := schedcache.PredictedCells(k, base)
				if w.cfg.CellBudget > 0 && cellsCommitted+cells > w.cfg.CellBudget {
					w.skippedBudget.Add(1)
					continue
				}
				cellsCommitted += cells
				w.cellsPlanned.Add(cells)
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return ctx.Err()
				}
				wg.Add(1)
				go func(k schedcache.Key, cells int64) {
					defer wg.Done()
					defer func() { <-sem }()
					if _, err := w.cfg.Build(k); err != nil {
						w.failed.Add(1)
						return
					}
					w.warmed.Add(1)
					w.cellsWarmed.Add(cells)
				}(k, cells)
			}
		}
	}
	return nil
}

// warmBase builds (and caches) the class's non-sleeping base schedule,
// which doubles as the Theorem 7 input for every duty point's closed-form
// footprint. Ownership does not matter here: the base is needed locally
// for prediction either way, and it is the cheapest point of the class.
func (w *Warmer) warmBase(class Class) (*core.Schedule, error) {
	k := schedcache.Key{N: class.N, D: class.D}
	w.planned.Add(1)
	s, err := w.cfg.Build(k)
	if err != nil {
		return nil, err
	}
	w.warmed.Add(1)
	w.cellsWarmed.Add(int64(class.N) * int64(s.L()))
	w.cellsPlanned.Add(int64(class.N) * int64(s.L()))
	return s, nil
}

func (w *Warmer) overByteBudget() bool {
	return w.cfg.ByteBudget > 0 && w.cfg.Stats().Bytes >= w.cfg.ByteBudget
}

// Snapshot reports progress; safe during Run.
func (w *Warmer) Snapshot() WarmerSnapshot {
	return WarmerSnapshot{
		Done:             w.done.Load(),
		Classes:          len(w.cfg.Classes),
		Planned:          w.planned.Load(),
		Warmed:           w.warmed.Load(),
		Failed:           w.failed.Load(),
		SkippedOwnership: w.skippedOwnership.Load(),
		SkippedBudget:    w.skippedBudget.Load(),
		StoppedByBytes:   w.stoppedByBytes.Load(),
		CellsPlanned:     w.cellsPlanned.Load(),
		CellsWarmed:      w.cellsWarmed.Load(),
	}
}
