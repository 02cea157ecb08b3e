package rewrite

import (
	"encoding/binary"
	"math"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Fuse1Q is the analytic single-qubit fusion pass for continuous gate sets:
// every maximal run of consecutive single-qubit gates on a wire is
// multiplied into one 2×2 unitary and re-emitted in the target set's
// minimal native form (u3 for ibmq20, rz·sx·rz·sx·rz for ibm-eagle, ZYZ for
// ionq, rz·h·rz·h·rz for nam). The fused form replaces the run only when it
// is no longer than the original, so the pass never increases gate count.
// The result is always a fresh circuit.
//
// This plays the role of the nonlinear u-gate merge rules that symbolic
// patterns cannot express (their parameter algebra is not linear).
func Fuse1Q(c *circuit.Circuit, gs *gateset.GateSet) *circuit.Circuit {
	return freshCopy(Fuse1QChanged(c, gs))
}

// Fuse1QChanged is Fuse1Q plus a change count covering both fusion events
// and the commuting reorders the per-wire buffering introduces (a buffered
// run is emitted after multi-qubit gates on other wires that arrived later
// than the run's gates). A zero count means nothing changed, and the
// returned circuit is then c itself; an output is assembled only when the
// count is positive.
func Fuse1QChanged(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	f := fuserPool.Get().(*fuser)
	f.reset(c.NumQubits, gs)
	for i, g := range c.Gates {
		if len(g.Qubits) == 1 {
			q := g.Qubits[0]
			f.pending[q] = append(f.pending[q], i)
			continue
		}
		for _, q := range g.Qubits {
			f.flush(c, q)
		}
		f.emitOrig(i)
	}
	for q := range f.pending {
		f.flush(c, q)
	}
	if !f.orderOK {
		f.changed++
	}
	out, changed := c, f.changed
	if changed > 0 {
		out = circuit.New(c.NumQubits)
		out.Gates = make([]gate.Gate, 0, len(c.Gates))
		for _, e := range f.order {
			if e >= 0 {
				out.Gates = append(out.Gates, c.Gates[e])
			} else {
				out.Gates = append(out.Gates, f.fused[^e]...)
			}
		}
	}
	f.release()
	return out, changed
}

// fuseMemoCap bounds the verdict memo; a full memo is cleared.
const fuseMemoCap = 4096

// fuserPool recycles the fusion pass's scratch, including its verdict
// memo: the pass runs after nearly every search step, in every concurrent
// window search, and mostly re-examines runs it has seen before.
var fuserPool = sync.Pool{New: func() any {
	return &fuser{
		u: linalg.New(2), m: linalg.New(2), tmp: linalg.New(2),
		memo: make(map[string]struct{}),
	}
}}

type fuser struct {
	pending [][]int // per wire: input indices of the buffered 1-qubit run
	// order lists the output: an input index, or ^k for fused[k].
	order    []int
	fused    [][]gate.Gate
	lastOrig int
	orderOK  bool
	changed  int
	u, m     linalg.Matrix // run product and gate matrix
	tmp      linalg.Matrix
	// memo holds the keys of runs of ≥ 2 gates that re-emit themselves
	// under gs. That verdict depends only on the run's gate names and
	// parameter bits and the gate set, not on its qubit, so the key is
	// exactly those (key is its scratch); a change of gs clears the memo.
	gs   *gateset.GateSet
	key  []byte
	memo map[string]struct{}
}

func (f *fuser) reset(qubits int, gs *gateset.GateSet) {
	if cap(f.pending) < qubits {
		f.pending = make([][]int, qubits)
	}
	f.pending = f.pending[:qubits]
	f.order = f.order[:0]
	f.lastOrig, f.orderOK, f.changed = -1, true, 0
	if f.gs != gs {
		clear(f.memo)
		f.gs = gs
	}
}

// release drops the fused gates and returns the scratch to the pool.
func (f *fuser) release() {
	clear(f.fused)
	f.fused = f.fused[:0]
	fuserPool.Put(f)
}

// emitOrig records an unmodified input gate as the next output gate,
// tracking whether the output still visits input gates in their original
// order.
//
//guoq:hotpath
func (f *fuser) emitOrig(idx int) {
	f.order = append(f.order, idx)
	if idx < f.lastOrig {
		f.orderOK = false
	} else {
		f.lastOrig = idx
	}
}

// flush emits the run buffered on wire q: fused when the fused form is no
// longer and differs from the run, otherwise as is.
//
//guoq:hotpath
func (f *fuser) flush(c *circuit.Circuit, q int) {
	run := f.pending[q]
	f.pending[q] = run[:0]
	if len(run) == 0 {
		return
	}
	if len(run) > 1 {
		if fused := f.fuse(c, run, q); fused != nil {
			f.changed++
			f.order = append(f.order, ^len(f.fused))
			f.fused = append(f.fused, fused)
			return
		}
	}
	for _, i := range run {
		f.emitOrig(i)
	}
}

// fuse returns the fused replacement for the run of input gates run on
// wire q, or nil when the run re-emits itself (the set cannot render the
// product, the rendering is longer, or it equals the run).
//
//guoq:hotpath
func (f *fuser) fuse(c *circuit.Circuit, run []int, q int) []gate.Gate {
	f.key = f.key[:0]
	for _, i := range run {
		g := c.Gates[i]
		f.key = append(f.key, byte(len(g.Name)))
		f.key = append(f.key, g.Name...)
		f.key = append(f.key, byte(len(g.Params)))
		for _, p := range g.Params {
			f.key = binary.LittleEndian.AppendUint64(f.key, math.Float64bits(p))
		}
	}
	if _, keeps := f.memo[string(f.key)]; keeps {
		return nil
	}
	u := f.u
	u.Data[0], u.Data[1], u.Data[2], u.Data[3] = 1, 0, 0, 1
	for _, i := range run {
		gate.MatrixInto(c.Gates[i], f.m)
		linalg.MulInto(f.tmp, f.m, u)
		u, f.tmp = f.tmp, u
	}
	f.u = u
	fused := emit1Q(u, q, f.gs)
	if fused != nil && len(fused) <= len(run) && !runEqual(fused, c, run) {
		return fused
	}
	if len(f.memo) >= fuseMemoCap {
		clear(f.memo)
	}
	f.memo[string(f.key)] = struct{}{}
	return nil
}

// runEqual compares a gate sequence with the input gates at indices run
// the way circuit.Equal does.
func runEqual(a []gate.Gate, c *circuit.Circuit, run []int) bool {
	if len(a) != len(run) {
		return false
	}
	for k, i := range run {
		if !a[k].Equal(c.Gates[i]) {
			return false
		}
	}
	return true
}

// emit1Q renders an arbitrary 2×2 unitary as a minimal native single-qubit
// sequence on qubit q, or nil when the set cannot represent it exactly
// (finite sets with non-π/4 angles).
func emit1Q(u linalg.Matrix, q int, gs *gateset.GateSet) []gate.Gate {
	tmp := circuit.New(1)
	th, ph, la, _ := linalg.U3Angles(u)
	if th < 1e-12 {
		// Diagonal unitary: emit as a plain z-rotation so ibmq20 gets a u1
		// instead of a full u3.
		tmp.Append(gate.NewRz(linalg.NormAngle(ph+la), 0))
	} else {
		tmp.Append(gate.NewU3(th, ph, la, 0))
	}
	native, err := gateset.Translate(tmp, gs)
	if err != nil {
		return nil
	}
	out := make([]gate.Gate, 0, len(native.Gates))
	for _, g := range native.Gates {
		ng := g.Clone()
		ng.Qubits[0] = q
		out = append(out, ng)
	}
	return out
}
