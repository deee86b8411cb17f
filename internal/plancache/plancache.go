// Package plancache caches lowered plans and their compiled pipeline
// artifacts across requests, keyed by the canonical parameter-invariant
// algebra fingerprint (algebra.Fingerprint): the second execution of a query
// shape — same structure, different literals — skips parsing-to-plan work and
// runs on the artifacts the first execution's background compiles landed (the
// amortization the paper's incremental-fusion design needs at serving scale).
//
// An instance's compile jobs live as long as the instance can use them: a job
// that had not landed when its query returned runs on and lands in the
// instance's artifact set, so the next hit runs that pipeline fused from its
// first morsel, or switches to the code the moment it lands. Evicting an
// instance, or dropping it in Put, cancels its jobs still in flight.
//
// A cached instance is the triple (lowered plan, parameter map, artifact
// set). Plans embed per-run mutable state (join tables sealed per execution,
// merged aggregate results) and artifacts close over exactly those state
// objects, so instances are leased exclusively: Acquire pops an idle
// instance, the caller patches parameters and executes, Put rewinds the run
// state and returns it. Concurrent requests for the same fingerprint beyond
// the pooled instances fall back to a fresh build and count as misses.
//
// The exclusive lease is also what lets an instance keep its execution state
// — worker contexts, scratch rows, frames, hash-table memory — for its next
// execution (exec.ArtifactSet, DESIGN.md §16): a hit re-executes on the
// memory of the previous run.
//
//inklint:lockscope
package plancache

import (
	"container/list"
	"sync"

	"inkfuse/internal/algebra"
	"inkfuse/internal/core"
	"inkfuse/internal/exec"
	"inkfuse/internal/flight"
	"inkfuse/internal/obs"
)

// Prepared is one exclusively-leased executable instance: a lowered plan, the
// parameter states to patch literals into it, and the compiled artifacts of
// earlier executions.
type Prepared struct {
	fp     core.Fingerprint
	plan   *core.Plan
	params *algebra.Params
	arts   *exec.ArtifactSet
	// reused records that the instance came out of the cache at least once:
	// its shape recurs, so its execution state is worth keeping.
	reused bool
	// Cost of the idle instance as the cache accounts it: compiled artifacts
	// and kept execution state, in bytes.
	artCost, stateCost int64
}

// NewPrepared wraps a freshly built plan for insertion into a cache.
func NewPrepared(fp core.Fingerprint, plan *core.Plan, params *algebra.Params) *Prepared {
	return &Prepared{fp: fp, plan: plan, params: params, arts: exec.NewArtifactSet(plan)}
}

// Fingerprint returns the instance's cache key.
func (p *Prepared) Fingerprint() core.Fingerprint { return p.fp }

// Plan returns the lowered plan. Valid only while the instance is leased.
func (p *Prepared) Plan() *core.Plan { return p.plan }

// Params returns the parameter map for rebinding literals.
func (p *Prepared) Params() *algebra.Params { return p.params }

// Artifacts returns the artifact set to pass as exec.Options.Artifacts.
func (p *Prepared) Artifacts() *exec.ArtifactSet { return p.arts }

// Config bounds a Cache.
type Config struct {
	// MaxEntries bounds distinct fingerprints (LRU evicted). <= 0 means 64.
	MaxEntries int
	// MaxBytes bounds the cache's memory estimate: the compiled artifacts plus
	// the execution state of all idle instances. Past it in artifacts alone,
	// entries are LRU-evicted; an instance whose kept execution state would
	// cross it is pooled without that state (its next execution runs cold, but
	// still hits). Servers size this from the engine memory limit so the cache
	// never crowds out query memory reservations. <= 0 means 256 MiB: an
	// instance of a TPC-H shape keeps 3-14 MB of execution state, most of it
	// the morsel-sized registers of its fused programs.
	MaxBytes int64
	// MaxInstances bounds pooled instances per fingerprint (concurrent
	// same-shape executions beyond it build fresh and are dropped on Put).
	// <= 0 means 4.
	MaxInstances int
}

// Stats is a point-in-time cache snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// Bytes is the memory estimate of all idle instances: compiled artifacts
	// plus kept execution state.
	Bytes int64 `json:"bytes"`
}

type entry struct {
	fp      core.Fingerprint
	idle    []*Prepared
	lruElem *list.Element
	evicted bool
}

// Cache is a bounded LRU over query-shape fingerprints. Safe for concurrent
// use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[core.Fingerprint]*entry
	lru     *list.List // front = most recently used; values are *entry
	// Summed costs of the idle instances. LRU eviction looks at artBytes only:
	// kept execution state is trimmed per instance in Put and never costs a
	// shape its entry.
	artBytes, stateBytes int64

	hits, misses, evictions int64
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 64
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.MaxInstances <= 0 {
		cfg.MaxInstances = 4
	}
	return &Cache{cfg: cfg, entries: make(map[core.Fingerprint]*entry), lru: list.New()}
}

// Acquire leases an idle instance for the fingerprint, or returns nil on a
// miss (no entry, or every pooled instance is busy). The caller of a miss
// builds fresh and hands the instance to Put when done.
func (c *Cache) Acquire(fp core.Fingerprint) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[fp]
	if e == nil || len(e.idle) == 0 {
		c.misses++
		obs.Default.Add(obs.PlanCacheMisses, 1)
		flight.Default.Record(flight.KindPlanCacheMiss, 0, fp.Hex(), 0, 0)
		return nil
	}
	p := e.idle[len(e.idle)-1]
	e.idle = e.idle[:len(e.idle)-1]
	p.reused = true
	c.artBytes -= p.artCost
	c.stateBytes -= p.stateCost
	c.lru.MoveToFront(e.lruElem)
	c.hits++
	obs.Default.Add(obs.PlanCacheHits, 1)
	flight.Default.Record(flight.KindPlanCacheHit, 0, fp.Hex(), p.artCost, 0)
	return p
}

// Put returns an instance to the cache — both releasing a leased hit and
// inserting a fresh miss build go through here. The execution state of a
// released hit is rewound in place (dropped after a failed execution, see
// exec.ArtifactSet.Rewind); that of a miss build is dropped — most shapes of
// ad-hoc traffic never come back, and one that does keeps its state from its
// first hit on. The instance's cost is re-estimated (background compiles may
// have landed new artifacts, buffers may have grown): a compile job still in
// flight lands after this estimate and is counted at the instance's next Put.
// The instance is pooled unless its entry was evicted meanwhile or the
// per-entry pool is full; then, or when the cache is nil (caching off), it is
// dropped and its in-flight compile jobs are canceled. Must only be called
// once no execution references the instance.
func (c *Cache) Put(p *Prepared) {
	if c == nil {
		p.arts.CancelJobs()
		return
	}
	if p.reused {
		p.arts.Rewind()
	} else {
		p.arts.DropState()
	}
	p.artCost, p.stateCost = p.arts.ArtifactBytes(), p.arts.StateBytes()

	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[p.fp]
	if e == nil {
		e = &entry{fp: p.fp}
		e.lruElem = c.lru.PushFront(e)
		c.entries[p.fp] = e
	} else if e.evicted || len(e.idle) >= c.cfg.MaxInstances {
		p.arts.CancelJobs()
		return
	}
	if c.artBytes+c.stateBytes+p.artCost+p.stateCost > c.cfg.MaxBytes {
		// Over the bound with this instance's execution state: pool it
		// without. The shape keeps hitting, on a cold instance.
		p.arts.DropState()
		p.stateCost = 0
	}
	e.idle = append(e.idle, p)
	c.artBytes += p.artCost
	c.stateBytes += p.stateCost
	c.lru.MoveToFront(e.lruElem)
	c.evict()
}

// evict drops least-recently-used entries until the bounds hold, canceling
// the in-flight compile jobs of their idle instances. Leased instances are
// untracked while out; an evicted entry's stragglers are dropped at Put via
// the evicted flag.
func (c *Cache) evict() {
	for (len(c.entries) > c.cfg.MaxEntries || c.artBytes > c.cfg.MaxBytes) && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		var freed int64
		for _, p := range e.idle {
			p.arts.CancelJobs()
			c.artBytes -= p.artCost
			c.stateBytes -= p.stateCost
			freed += p.artCost + p.stateCost
		}
		flight.Default.Record(flight.KindPlanCacheEvict, 0, e.fp.Hex(), freed, 0)
		e.idle = nil
		e.evicted = true
		c.lru.Remove(back)
		delete(c.entries, e.fp)
		c.evictions++
		obs.Default.Add(obs.PlanCacheEvictions, 1)
	}
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.artBytes + c.stateBytes,
	}
}
