package rewrite

import (
	"fmt"
	"sort"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
)

// Engine is the stateful, incremental rewrite executor. It owns a mutable
// circuit with a persistently maintained DAG (gate windows are spliced in
// and out in place, one linear sweep per transformation, instead of a
// from-scratch BuildDAG per call) and a per-rule match-site cache, so
// iterated full passes — the GUOQ inner loop, fixed-pass pipelines,
// lookahead search — cost far less than the pure FullPass API, which
// reallocates and rescans everything on every call.
//
// Cache and invalidation contract: for every rule the Engine keeps a
// three-state per-anchor verdict — unknown, no-match, or match — so a
// rescan skips known failures outright and replays known matches by pure
// DAG navigation (see replayAt) instead of re-running the matcher. A match
// attempt at an anchor only ever inspects gates within the rule's halo
// depth (Rule.HaloDepth, derived from the pattern's per-wire extents at
// compile time) in wire-adjacency steps of the anchor, so after a splice
// only anchors inside a wire-adjacency halo of the touched windows — BFS
// steps from the replaced gates and their boundary wire neighbours, out to
// each rule's own halo depth — can change verdicts; exactly those entries,
// positive and negative alike, are cleared. The clearing is lazy: a splice
// parks its halo job and the next scan flushes it, so a speculative splice
// that is cleanly rolled back (nothing scanned in between) cancels the job
// and costs no cache entries at all. Whole-circuit mutations (SetCircuit,
// Reset) drop every cache entry.
//
// All mutations are recorded on a transaction log: Mark returns a point to
// which Rollback restores the exact prior gate sequence (a speculative
// candidate the caller rejected, or a lookahead branch), and Commit accepts
// everything logged. A splice necessarily drops the cache entries inside
// its windows (the anchors there are replaced), so each undo record also
// saves those entries — for every rule — and Rollback copies them back as
// it restores each window. Undoing record i returns to exactly the state
// record i's entries were computed in, so the restored verdicts are fresh
// truths, never resurrected stale ones. Together with the cancelled halo
// job this makes a rejected candidate cost no cache entries at all: the hot
// reject path (propose, apply, cost, rollback, re-propose later) re-runs no
// matcher work once a site has been evaluated against each live rule.
//
// Anchor lists: a match is anchored at a gate named like the rule's first
// pattern gate, so the Engine keeps, per gate name, the ascending positions
// of the gates with that name, and a scan visits only its rule's list — in
// the same (start+k) % n order as visiting every gate, so the first match
// found, every cache verdict and the output are unchanged; the cache
// records verdicts only at those anchors. Splices (forward and rollback)
// merge each list in one linear pass that looks up only the replacement
// gates' names; whole-circuit mutations rescan.
//
// An Engine is not safe for concurrent use; parallel searches thread one
// Engine per worker.
type Engine struct {
	c   *circuit.Circuit
	dag *circuit.DAG

	caches   map[*Rule]*ruleCache
	rules    []*ruleCache // caches in creation order, for stable iteration
	maxDepth int          // deepest per-rule halo among cached rules, for the BFS

	// Per-kind anchor lists: anchors[k] holds, ascending, the positions of
	// the gates named kinds[k]. A rule's scan visits only the list of its
	// first pattern gate's name. Splices keep the lists current with one
	// linear merge per kind (spliceAnchors); whole-circuit changes rescan
	// (indexAnchors).
	kinds     []gate.Name
	anchors   [][]int
	anchorIns [][]int // per kind: the current splice's inserted positions
	anchorTmp []int   // merge scratch for spliceAnchors

	scratch  *matchScratch
	used     []bool
	matchBuf []*Match

	// Mutation assembly scratch.
	winBuf      []circuit.SpliceWindow
	replBuf     []gate.Gate
	byteScratch []byte
	qOffs       []int

	// scanCount stamps undo records so Rollback can tell whether any anchors
	// were scanned since a splice was applied; if none were, the entries
	// that survived are still valid for the restored state and the rollback
	// needs no halo pass of its own.
	scanCount int

	// Deferred halo invalidation. A forward splice does not clear its halo
	// eagerly: the job is parked here and only flushed by the next cache
	// consumer (a scan, or a dirty rollback). A clean rollback — the hot
	// reject path, where nothing scanned the cache while the speculative
	// state was live — cancels the job instead, so a rejected candidate
	// costs no cache entries at all. At most one job is ever pending: any
	// later splice or scan flushes it first, while its coordinates are
	// still current.
	pendLive  bool
	pendWins  []undoWin
	pendSeeds []int
	pendQOffs []int

	// Halo BFS scratch: epoch-stamped visited marks and a level queue.
	visited []int
	epoch   int
	queue   []int
	levels  []int
	seedQ   []int  // touched-qubit list of the current mutation
	seedQOn []bool // per-qubit membership mark for seedQ

	log []undoRec

	stats EngineStats
}

// Per-anchor cache verdicts. cacheMatch entries carry the cached match in
// the rule's anchor-sorted pos list; the other two states have no entry.
const (
	cacheUnknown = byte(iota)
	cacheNoMatch
	cacheMatch
)

// ruleCache is one rule's three-state match cache. state[i] records the
// verdict for the rule anchored at gate i, index-aligned with the gate list
// across splices. Positive entries live in pos, a small anchor-sorted list
// (one entry per cacheMatch byte in state): the cached match's index-free
// parts (qubit map, binding) stay valid until invalidated and its positions
// are re-derived on replay. Keeping the positives dense rather than as a
// parallel *Match slice matters in the hot loop — a splice delta-shifts a
// handful of entries instead of memmoving (and write-barriering) a
// pointer per gate. depth is the rule's invalidation radius
// (Rule.HaloDepth), computed from the pattern's per-wire extents at
// compile time.
type ruleCache struct {
	state []byte
	pos   []posEntry
	depth int
	kind  int // index of the rule's anchor list (Pattern[0]'s name)
}

// posEntry is one cached positive match, keyed by its anchor index.
type posEntry struct {
	anchor int
	m      *Match
}

// posSearch returns the first index in pos with entry anchor >= a.
//
//guoq:hotpath
func (rc *ruleCache) posSearch(a int) int {
	lo, hi := 0, len(rc.pos)
	for lo < hi {
		mid := (lo + hi) / 2
		if rc.pos[mid].anchor < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// posGet returns the cached match anchored at a, or nil.
//
//guoq:hotpath
func (rc *ruleCache) posGet(a int) *Match {
	i := rc.posSearch(a)
	if i < len(rc.pos) && rc.pos[i].anchor == a {
		return rc.pos[i].m
	}
	return nil
}

// posSet inserts or replaces the entry anchored at a.
//
//guoq:hotpath
func (rc *ruleCache) posSet(a int, m *Match) {
	i := rc.posSearch(a)
	if i < len(rc.pos) && rc.pos[i].anchor == a {
		rc.pos[i].m = m
		return
	}
	rc.pos = append(rc.pos, posEntry{})
	copy(rc.pos[i+1:], rc.pos[i:])
	rc.pos[i] = posEntry{anchor: a, m: m}
}

// posDelete removes the entry anchored at a, if present.
//
//guoq:hotpath
func (rc *ruleCache) posDelete(a int) {
	i := rc.posSearch(a)
	if i < len(rc.pos) && rc.pos[i].anchor == a {
		copy(rc.pos[i:], rc.pos[i+1:])
		rc.pos[len(rc.pos)-1] = posEntry{}
		rc.pos = rc.pos[:len(rc.pos)-1]
	}
}

// posSplice mirrors a multi-window gate splice on the anchor-sorted
// positive list: entries inside a replaced window are dropped (the undo
// record keeps their matches), entries past it shift by the window's size
// delta. One linear merge, in place.
//
//guoq:hotpath
func (rc *ruleCache) posSplice(ws []circuit.SpliceWindow) {
	out := rc.pos[:0]
	delta, wi := 0, 0
	for _, pe := range rc.pos {
		for wi < len(ws) && ws[wi].Hi < pe.anchor {
			delta += len(ws[wi].Repl) - (ws[wi].Hi - ws[wi].Lo + 1)
			wi++
		}
		if wi < len(ws) && ws[wi].Lo <= pe.anchor {
			continue
		}
		out = append(out, posEntry{pe.anchor + delta, pe.m})
	}
	// Release dropped tails so rolled-back matches don't pin memory.
	for i := len(out); i < len(rc.pos); i++ {
		rc.pos[i] = posEntry{}
	}
	rc.pos = out
}

// EngineStats counts engine activity since construction, for tests and
// benchmarks.
type EngineStats struct {
	Passes       int // FullPass calls
	CacheSkips   int // anchors skipped via a cached no-match verdict
	PositiveHits int // anchors served by replaying a cached match
	MatchCalls   int // matchAt invocations (cache misses)
	Reinstalls   int // positive entries restored by rollback window restores
	Splices      int // window replacements applied (including rollbacks)
	Invalidated  int // cache entries cleared by halo invalidation
	HaloGates    int // gates swept by halo invalidation BFS passes
	HaloDepth    int // deepest per-rule halo radius in use (gauge)
	Resets       int // full invalidations (SetCircuit, Reset, their rollbacks)
	Commits      int // accepted transactions (Commit calls)
	Rollbacks    int // reverted transactions (Rollback calls that undid work)
}

type undoKind uint8

const (
	undoMulti undoKind = iota
	undoSetAll
)

// undoWin records one applied window in post-splice coordinates: gates
// [lo, lo+inserted) replaced the removed sequence (a subslice of the
// record's shared backing array).
type undoWin struct {
	lo       int
	inserted int
	removed  []gate.Gate
}

// undoRec is one logged mutation. For undoMulti, savedState holds the
// pre-splice verdict bytes of every window, concatenated per rule in
// e.rules[:nRules] order (window entries are the only ones a splice
// destroys; the rest shift but survive), and savedPos the matches behind
// its cacheMatch bytes, dense, in the same order. Rollback copies them
// back as it restores the windows, so a rejected candidate loses no
// verdicts.
type undoRec struct {
	kind       undoKind
	wins       []undoWin   // undoMulti: ascending, non-overlapping, post coords
	old        []gate.Gate // undoSetAll: the entire prior gate list
	scan       int         // e.scanCount when the record was pushed
	savedState []byte
	savedPos   []*Match
	nRules     int // len(e.rules) at push time
}

// NewEngine builds an engine over a deep copy of c; the input is never
// mutated. The engine's Circuit() pointer stays stable for its lifetime.
func NewEngine(c *circuit.Circuit) *Engine {
	e := &Engine{
		c:       c.Clone(),
		caches:  map[*Rule]*ruleCache{},
		scratch: newMatchScratch(),
	}
	e.dag = circuit.BuildDAG(e.c)
	e.indexAnchors()
	return e
}

// Circuit returns the engine's live circuit. It is mutated in place by
// FullPass/ReplaceRegion/SetCircuit/Reset; callers that need a stable copy
// (publishing a best-so-far, recording a result) must use Snapshot.
func (e *Engine) Circuit() *circuit.Circuit { return e.c }

// Snapshot returns a deep copy of the current circuit.
func (e *Engine) Snapshot() *circuit.Circuit { return e.c.Clone() }

// Stats returns activity counters accumulated since construction.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.HaloDepth = e.maxDepth
	return s
}

// Mark returns a point on the transaction log to which Rollback can return.
func (e *Engine) Mark() int { return len(e.log) }

// Commit accepts every logged mutation, discarding the undo state.
func (e *Engine) Commit() {
	e.stats.Commits++
	for i := range e.log {
		e.log[i] = undoRec{}
	}
	e.log = e.log[:0]
}

// Rollback reverts every mutation logged after mark, most recent first,
// restoring the exact prior gate sequence. When no anchors were scanned
// since the oldest reverted record was applied (the common reject path:
// apply, cost, reject), every surviving cache entry was computed against
// the state being restored, so the rollback splices skip the halo pass
// entirely.
//
// The cache entries each forward splice destroyed — every rule's verdicts
// inside the replaced windows — are copied back from the undo record as
// the windows are restored: undoing record i returns to exactly the state
// those entries were computed in, so the restored verdicts are fresh
// truths, never resurrected stale ones (entries that merely survived in
// the slices are governed by the ordinary halo rules above).
func (e *Engine) Rollback(mark int) {
	if mark >= len(e.log) {
		return
	}
	e.stats.Rollbacks++
	clean := e.scanCount == e.log[mark].scan
	if clean {
		// No scan consulted the cache while the speculative state was
		// live, so the parked invalidation (pushed by a record ≥ mark —
		// any earlier job was flushed before these splices ran) never
		// needs to happen: the restore returns to exactly the state every
		// surviving entry was computed against.
		e.pendLive = false
	} else {
		// Coordinates of the parked job are current until the undo
		// splices below run; flush it first.
		e.flushPending()
	}
	for i := len(e.log) - 1; i >= mark; i-- {
		rec := e.log[i]
		switch rec.kind {
		case undoMulti:
			// Invert in place: each applied window [lo, lo+inserted) goes
			// back to its removed gates. Post coordinates of the forward
			// splice are current coordinates now.
			ws := e.winBuf[:0]
			for _, w := range rec.wins {
				ws = append(ws, circuit.SpliceWindow{Lo: w.lo, Hi: w.lo + w.inserted - 1, Repl: w.removed})
			}
			e.winBuf = ws
			e.multiSplice(ws, false, !clean)
			// The restored windows sit at the forward splice's original
			// (pre-splice) coordinates; walk the running delta back out to
			// find each window's original lo, and copy the saved entries
			// back in the same per-rule, per-window order they were taken.
			si, pi := 0, 0
			for ri := 0; ri < rec.nRules; ri++ {
				rc := e.rules[ri]
				delta := 0
				for _, w := range rec.wins {
					origLo := w.lo - delta
					delta += w.inserted - len(w.removed)
					nw := len(w.removed)
					copy(rc.state[origLo:origLo+nw], rec.savedState[si:si+nw])
					for k, b := range rec.savedState[si : si+nw] {
						if b == cacheMatch {
							rc.posSet(origLo+k, rec.savedPos[pi])
							pi++
							e.stats.Reinstalls++
						}
					}
					si += nw
				}
			}
		case undoSetAll:
			e.c.Gates = rec.old
			e.rebuildAll()
		}
		e.log[i] = undoRec{}
	}
	e.log = e.log[:mark]
}

// cacheFor returns (creating if needed) the rule's match cache, sized to
// the current gate count.
func (e *Engine) cacheFor(r *Rule) *ruleCache {
	rc := e.caches[r]
	if rc == nil {
		n := len(e.c.Gates)
		rc = &ruleCache{state: make([]byte, n), depth: r.HaloDepth(), kind: e.kindOf(r.Pattern[0].Name)}
		e.caches[r] = rc
		e.rules = append(e.rules, rc)
		if rc.depth > e.maxDepth {
			e.maxDepth = rc.depth
		}
	}
	return rc
}

// FullPass applies one full pass of rule r starting at the given anchor,
// in place, and returns the number of sites replaced — bit-for-bit the
// same result as the pure FullPass on a copy of the circuit. The scan
// consults and extends the rule's match cache (skipping cached failures,
// replaying cached matches); all replacements land in one
// transaction-logged multi-window splice with a single halo invalidation.
//
//guoq:hotpath
func (e *Engine) FullPass(r *Rule, start int) int {
	e.stats.Passes++
	n := len(e.c.Gates)
	if n == 0 {
		return 0
	}
	rc := e.cacheFor(r)
	// used stays all-false between passes: the scan marks only the matched
	// windows, which are cleared again below.
	if cap(e.used) < n {
		e.used = make([]bool, n)
	}
	used := e.used[:n]
	e.flushPending()
	e.scanCount++
	ms := findMatches(e.c, e.dag, r, e.anchors[rc.kind], start, e.scratch, used, rc, e.matchBuf[:0], &e.stats)
	for _, m := range ms {
		for i := m.Lo; i <= m.Hi; i++ {
			used[i] = false
		}
	}
	if len(ms) == 0 {
		e.matchBuf = ms[:0]
		return 0
	}
	// Assemble the windows in ascending order, exactly like the pure Apply.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Lo < ms[j-1].Lo; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	// Phase one: emit every window's gates into one shared backing buffer,
	// recording offsets (the buffer may reallocate while growing, so
	// subslices are taken only afterwards).
	repl := e.replBuf[:0]
	offs := e.levels[:0] // reuse the levels scratch for offsets
	for _, m := range ms {
		offs = append(offs, len(repl))
		ti := 0
		for i := m.Lo; i <= m.Hi; i++ {
			if ti < len(m.Indices) && m.Indices[ti] == i {
				ti++
				continue
			}
			repl = append(repl, e.c.Gates[i])
		}
		repl = m.Rule.appendReplacement(repl, m.Binding, m.QubitMap)
	}
	offs = append(offs, len(repl))
	e.replBuf = repl
	ws := e.winBuf[:0]
	for i, m := range ms {
		ws = append(ws, circuit.SpliceWindow{Lo: m.Lo, Hi: m.Hi, Repl: repl[offs[i]:offs[i+1]]})
	}
	e.winBuf = ws
	e.levels = offs[:0]
	e.multiSplice(ws, true, true)
	sites := len(ms)
	for i := range ms {
		ms[i] = nil
	}
	e.matchBuf = ms[:0]
	return sites
}

// ReplaceRegion splices a resynthesized subcircuit in place of a convex
// region, mirroring circuit.Region.Replace: unselected window gates are
// preserved ahead of the replacement, whose local qubits are mapped back to
// the region's global qubits. The mutation is transaction-logged and its
// halo invalidated, so resynthesis moves keep the match cache sound.
func (e *Engine) ReplaceRegion(r *circuit.Region, replacement *circuit.Circuit) {
	if replacement.NumQubits != len(r.Qubits) {
		panic(fmt.Sprintf("rewrite: ReplaceRegion: replacement has %d qubits, region spans %d",
			replacement.NumQubits, len(r.Qubits)))
	}
	repl := e.replBuf[:0]
	ti := 0
	for i := r.Lo; i <= r.Hi; i++ {
		if ti < len(r.Indices) && r.Indices[ti] == i {
			ti++
			continue
		}
		repl = append(repl, e.c.Gates[i])
	}
	for _, g := range replacement.Gates {
		ng := g.Clone()
		for k, q := range ng.Qubits {
			ng.Qubits[k] = r.Qubits[q]
		}
		repl = append(repl, ng)
	}
	e.replBuf = repl
	ws := append(e.winBuf[:0], circuit.SpliceWindow{Lo: r.Lo, Hi: r.Hi, Repl: repl})
	e.winBuf = ws
	e.multiSplice(ws, true, true)
}

// ReplaceRegions splices one replacement per region in a single logged
// transaction — the stitching step of partition-parallel optimization:
// windows optimized independently land together, with one DAG sweep, one
// cache splice, and one halo invalidation instead of len(rs) of each.
// Regions must be ascending and non-overlapping (in current coordinates,
// which replacing them simultaneously preserves, unlike sequential
// ReplaceRegion calls whose later indices shift). Equivalent to applying
// the regions back-to-front one at a time.
func (e *Engine) ReplaceRegions(rs []*circuit.Region, repls []*circuit.Circuit) {
	if len(rs) != len(repls) {
		panic(fmt.Sprintf("rewrite: ReplaceRegions: %d regions, %d replacements", len(rs), len(repls)))
	}
	if len(rs) == 0 {
		return
	}
	for i, r := range rs {
		if repls[i].NumQubits != len(r.Qubits) {
			panic(fmt.Sprintf("rewrite: ReplaceRegions: replacement %d has %d qubits, region spans %d",
				i, repls[i].NumQubits, len(r.Qubits)))
		}
		if i > 0 && r.Lo <= rs[i-1].Hi {
			panic(fmt.Sprintf("rewrite: ReplaceRegions: regions %d and %d overlap or are out of order", i-1, i))
		}
	}
	// Emit every window's gates into one shared backing buffer, recording
	// offsets (the buffer may reallocate while growing, so subslices are
	// taken only afterwards) — the FullPass assembly pattern.
	repl := e.replBuf[:0]
	offs := e.levels[:0]
	for ri, r := range rs {
		offs = append(offs, len(repl))
		ti := 0
		for i := r.Lo; i <= r.Hi; i++ {
			if ti < len(r.Indices) && r.Indices[ti] == i {
				ti++
				continue
			}
			repl = append(repl, e.c.Gates[i])
		}
		for _, g := range repls[ri].Gates {
			ng := g.Clone()
			for k, q := range ng.Qubits {
				ng.Qubits[k] = r.Qubits[q]
			}
			repl = append(repl, ng)
		}
	}
	offs = append(offs, len(repl))
	e.replBuf = repl
	ws := e.winBuf[:0]
	for i, r := range rs {
		ws = append(ws, circuit.SpliceWindow{Lo: r.Lo, Hi: r.Hi, Repl: repl[offs[i]:offs[i+1]]})
	}
	e.winBuf = ws
	e.levels = offs[:0]
	e.multiSplice(ws, true, true)
}

// SetCircuit replaces the engine's entire gate list with out's — the result
// of a whole-circuit pass (cleanup, fusion, phase folding) — as a logged
// transaction with full cache invalidation. The engine takes ownership of
// out's gate slice; the qubit count must be unchanged.
func (e *Engine) SetCircuit(out *circuit.Circuit) {
	if out.NumQubits != e.c.NumQubits {
		panic(fmt.Sprintf("rewrite: SetCircuit: qubit count %d != engine's %d",
			out.NumQubits, e.c.NumQubits))
	}
	e.log = append(e.log, undoRec{kind: undoSetAll, old: e.c.Gates})
	e.c.Gates = out.Gates
	e.rebuildAll()
}

// Reset adopts a new circuit wholesale — an exchange migration or an async
// resynthesis result — clearing the transaction log and all caches. The
// input is cloned; the engine's Circuit() pointer is stable across Reset.
func (e *Engine) Reset(c *circuit.Circuit) {
	e.c.NumQubits = c.NumQubits
	e.c.Gates = e.c.Gates[:0]
	for _, g := range c.Gates {
		e.c.Gates = append(e.c.Gates, g.Clone())
	}
	for i := range e.log {
		e.log[i] = undoRec{}
	}
	e.log = e.log[:0]
	e.rebuildAll()
}

// rebuildAll recomputes the DAG and the anchor lists from the current gate
// list and wipes every rule cache (a whole-circuit change has no useful
// halo).
func (e *Engine) rebuildAll() {
	e.stats.Resets++
	e.pendLive = false // the wipe below supersedes any parked halo
	e.dag.Rebuild()
	e.indexAnchors()
	n := len(e.c.Gates)
	for _, rc := range e.rules {
		if cap(rc.state) < n {
			rc.state = make([]byte, n)
		} else {
			rc.state = rc.state[:n]
			for i := range rc.state {
				rc.state[i] = cacheUnknown
			}
		}
		for i := range rc.pos {
			rc.pos[i] = posEntry{}
		}
		rc.pos = rc.pos[:0]
	}
}

// multiSplice applies one transformation's window replacements: a single
// DAG sweep, one cache splice per rule, and one halo invalidation over all
// windows. Windows must be ascending and non-overlapping, in current
// coordinates. When record is set (a forward splice), the inverse is pushed
// on the undo log — along with every rule's cache entries inside the
// windows, which the splice is about to destroy and a rollback will want
// back — and the halo invalidation is parked rather than run: the next
// scan flushes it, or a clean rollback cancels it. halo then only matters
// for record=false (rollback restores), where it holds whether an eager
// invalidation pass runs.
//
//guoq:hotpath
func (e *Engine) multiSplice(ws []circuit.SpliceWindow, record, halo bool) {
	if record {
		// Any previously parked job still refers to current coordinates;
		// flush it before this splice shifts them.
		e.flushPending()
	}
	e.stats.Splices += len(ws)
	// Collect, per window, its touched qubits (removed plus inserted gates)
	// as ranges of one shared list, and — when recording — the removed
	// windows, before the gate list changes.
	if cap(e.seedQOn) < e.c.NumQubits {
		e.seedQOn = make([]bool, e.c.NumQubits)
	}
	on := e.seedQOn[:e.c.NumQubits]
	seeds := e.seedQ[:0]
	qOffs := e.qOffs[:0]
	mark := func(gs []gate.Gate) {
		for _, g := range gs {
			for _, q := range g.Qubits {
				if !on[q] {
					on[q] = true
					seeds = append(seeds, q)
				}
			}
		}
	}
	var wins []undoWin
	var removedAll []gate.Gate
	total := 0
	if record {
		for _, w := range ws {
			total += w.Hi - w.Lo + 1
		}
		wins = make([]undoWin, 0, len(ws))
		removedAll = make([]gate.Gate, 0, total)
	}
	delta := 0
	for _, w := range ws {
		qOffs = append(qOffs, len(seeds))
		mark(e.c.Gates[w.Lo : w.Hi+1])
		mark(w.Repl)
		for _, q := range seeds[qOffs[len(qOffs)-1]:] {
			on[q] = false
		}
		if record {
			// removedAll's capacity is exact, so the subslice stays valid.
			start := len(removedAll)
			removedAll = append(removedAll, e.c.Gates[w.Lo:w.Hi+1]...)
			wins = append(wins, undoWin{
				lo: w.Lo + delta, inserted: len(w.Repl),
				removed: removedAll[start:len(removedAll):len(removedAll)],
			})
		}
		delta += len(w.Repl) - (w.Hi - w.Lo + 1)
	}
	qOffs = append(qOffs, len(seeds))
	if record {
		rec := undoRec{kind: undoMulti, wins: wins, scan: e.scanCount, nRules: len(e.rules)}
		if len(e.rules) > 0 {
			// Save every rule's verdicts for the replaced windows — the only
			// entries the cache splice below destroys — so a rollback can
			// put them back (they are truths for the state it restores). The
			// matches behind cacheMatch bytes ride along densely, in order.
			rec.savedState = make([]byte, 0, total*len(e.rules))
			for _, rc := range e.rules {
				for _, w := range ws {
					rec.savedState = append(rec.savedState, rc.state[w.Lo:w.Hi+1]...)
					for j := rc.posSearch(w.Lo); j < len(rc.pos) && rc.pos[j].anchor <= w.Hi; j++ {
						rec.savedPos = append(rec.savedPos, rc.pos[j].m)
					}
				}
			}
		}
		e.log = append(e.log, rec)
	}

	e.dag.MultiSplice(ws)
	e.spliceAnchors(ws)
	for _, rc := range e.rules {
		rc.state = e.multiSpliceBytes(rc.state, ws)
		rc.posSplice(ws)
	}
	if record {
		e.parkHalo(wins, seeds, qOffs)
	} else if halo {
		// A rollback's post coordinates are the forward splice's
		// original window positions.
		wins = wins[:0]
		delta = 0
		for _, w := range ws {
			wins = append(wins, undoWin{lo: w.Lo + delta, inserted: len(w.Repl)})
			delta += len(w.Repl) - (w.Hi - w.Lo + 1)
		}
		e.invalidate(wins, seeds, qOffs)
	}

	e.seedQ = seeds[:0]
	e.qOffs = qOffs[:0]
}

// kindOf returns the index of name's anchor list, creating an empty list
// for a name not seen before. An engine sees a handful of names, so a
// linear scan suffices.
//
//guoq:hotpath
func (e *Engine) kindOf(name gate.Name) int {
	for k, kn := range e.kinds {
		if kn == name {
			return k
		}
	}
	e.kinds = append(e.kinds, name)
	e.anchors = append(e.anchors, nil)
	e.anchorIns = append(e.anchorIns, nil)
	return len(e.kinds) - 1
}

// indexAnchors rebuilds every anchor list with one scan of the gate list.
func (e *Engine) indexAnchors() {
	for k := range e.anchors {
		e.anchors[k] = e.anchors[k][:0]
	}
	for i, g := range e.c.Gates {
		k := e.kindOf(g.Name)
		e.anchors[k] = append(e.anchors[k], i)
	}
}

// spliceAnchors mirrors a multi-window gate splice (windows in pre-splice
// coordinates, as passed to DAG.MultiSplice) on the anchor lists: entries
// inside a replaced window are dropped, entries past it shift by the
// window's size delta, and each replacement gate's post-splice position
// is merged into its name's list. Only the replacement gates' names are
// looked up; every list is rewritten from its first entry at or past the
// first window, in one linear merge.
//
//guoq:hotpath
func (e *Engine) spliceAnchors(ws []circuit.SpliceWindow) {
	if len(ws) == 0 {
		return
	}
	delta := 0
	for _, w := range ws {
		lo := w.Lo + delta
		for j, g := range w.Repl {
			k := e.kindOf(g.Name)
			e.anchorIns[k] = append(e.anchorIns[k], lo+j)
		}
		delta += len(w.Repl) - (w.Hi - w.Lo + 1)
	}
	for k, old := range e.anchors {
		ins := e.anchorIns[k]
		i := sort.SearchInts(old, ws[0].Lo)
		if i == len(old) && len(ins) == 0 {
			continue
		}
		i0 := i
		tmp := e.anchorTmp[:0]
		delta, ii := 0, 0
		for _, w := range ws {
			// Entries before the window shift by the windows before it;
			// entries inside it are replaced, and its own insertions end
			// just before the first entry past it.
			for ; i < len(old) && old[i] < w.Lo; i++ {
				tmp = append(tmp, old[i]+delta)
			}
			for i < len(old) && old[i] <= w.Hi {
				i++
			}
			delta += len(w.Repl) - (w.Hi - w.Lo + 1)
			for ; ii < len(ins) && ins[ii] <= w.Hi+delta; ii++ {
				tmp = append(tmp, ins[ii])
			}
		}
		for _, a := range old[i:] {
			tmp = append(tmp, a+delta)
		}
		e.anchors[k] = append(old[:i0], tmp...)
		e.anchorTmp = tmp[:0]
		e.anchorIns[k] = ins[:0]
	}
}

// parkHalo defers one splice's halo invalidation: the job is copied out of
// the mutation scratch and held until the next cache consumer flushes it
// (or a clean rollback cancels it). Only the window geometry is kept — the
// undo payload (removed gates, matches) stays with the log record.
//
//guoq:hotpath
func (e *Engine) parkHalo(wins []undoWin, seeds, qOffs []int) {
	pw := e.pendWins[:0]
	for _, w := range wins {
		pw = append(pw, undoWin{lo: w.lo, inserted: w.inserted})
	}
	e.pendWins = pw
	e.pendSeeds = append(e.pendSeeds[:0], seeds...)
	e.pendQOffs = append(e.pendQOffs[:0], qOffs...)
	e.pendLive = true
}

// flushPending runs the parked halo invalidation, if any. Callers must
// ensure the job's coordinates are still current (no splice since it was
// parked — the multiSplice entry flush maintains that invariant).
//
//guoq:hotpath
func (e *Engine) flushPending() {
	if !e.pendLive {
		return
	}
	e.pendLive = false
	e.invalidate(e.pendWins, e.pendSeeds, e.pendQOffs)
}

// multiSpliceBytes mirrors a multi-window gate splice on a per-anchor byte
// slice: each window's entries are replaced by unknown (zero) bytes. The
// new slice is assembled into a shared scratch buffer that ping-pongs with
// the old storage.
//
//guoq:hotpath
func (e *Engine) multiSpliceBytes(b []byte, ws []circuit.SpliceWindow) []byte {
	out := e.byteScratch[:0]
	i := 0
	for _, w := range ws {
		out = append(out, b[i:w.Lo]...)
		for k := 0; k < len(w.Repl); k++ {
			out = append(out, 0)
		}
		i = w.Hi + 1
	}
	out = append(out, b[i:]...)
	e.byteScratch = b[:0]
	return out
}

// invalidate clears the cache entries in the wire-adjacency halo of the
// applied windows (post coordinates). One BFS over the post-splice DAG —
// seeded with the inserted gates and, per touched wire, the gates just
// outside each window — records each gate's distance from the change; a
// rule's entries, positive and negative alike, are cleared only within its
// own compiled radius (Rule.HaloDepth, from the pattern's per-wire
// extents), since a match attempt for that rule explores at most that many
// wire steps from its anchor. Keeping the halo per-rule-tight — and much
// tighter than the old pattern-length bound for long narrow patterns — is
// what lets small rules retain most of their cache across unrelated edits.
//
//guoq:hotpath
func (e *Engine) invalidate(wins []undoWin, seeds, qOffs []int) {
	n := len(e.c.Gates)
	if n == 0 {
		return
	}
	depth := e.maxDepth
	e.epoch++
	if cap(e.visited) < n {
		e.visited = make([]int, n)
	}
	visited := e.visited[:n]
	queue := e.queue[:0]
	add := func(i int) {
		if i >= 0 && i < n && visited[i] != e.epoch {
			visited[i] = e.epoch
			queue = append(queue, i)
		}
	}
	for wi, w := range wins {
		for i := w.lo; i < w.lo+w.inserted; i++ {
			add(i)
		}
		for _, q := range seeds[qOffs[wi]:qOffs[wi+1]] {
			wq := e.dag.Wire(q)
			a := sort.SearchInts(wq, w.lo)
			if a > 0 {
				add(wq[a-1])
			}
			b := a
			for b < len(wq) && wq[b] < w.lo+w.inserted {
				b++
			}
			if b < len(wq) {
				add(wq[b])
			}
		}
	}
	// Level-order BFS; levels[d] is the queue length after expanding depth
	// d, so queue[:levels[d]] holds every gate within d steps of the seeds.
	levels := e.levels[:0]
	levels = append(levels, len(queue))
	head := 0
	for d := 1; d <= depth; d++ {
		levelEnd := levels[len(levels)-1]
		for head < levelEnd {
			i := queue[head]
			head++
			next, prev := e.dag.Links(i)
			for _, nb := range next {
				add(nb)
			}
			for _, nb := range prev {
				add(nb)
			}
		}
		levels = append(levels, len(queue))
	}
	e.stats.HaloGates += len(queue)
	for _, rc := range e.rules {
		r := rc.depth
		if r > depth {
			r = depth
		}
		for _, i := range queue[:levels[r]] {
			if rc.state[i] != cacheUnknown {
				if rc.state[i] == cacheMatch {
					rc.posDelete(i)
				}
				rc.state[i] = cacheUnknown
				e.stats.Invalidated++
			}
		}
	}
	e.queue = queue[:0]
	e.levels = levels[:0]
}
