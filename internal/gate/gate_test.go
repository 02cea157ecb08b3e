package gate

import (
	"math"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/linalg"
)

const tol = 1e-10

func TestAllMatricesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range Names() {
		s, _ := SpecOf(n)
		qs := make([]int, s.Qubits)
		for i := range qs {
			qs[i] = i
		}
		for trial := 0; trial < 5; trial++ {
			ps := make([]float64, s.Params)
			for i := range ps {
				ps[i] = rng.Float64()*4*math.Pi - 2*math.Pi
			}
			g := New(n, qs, ps)
			m := Matrix(g)
			if m.N != 1<<s.Qubits {
				t.Fatalf("%s: matrix dim %d, want %d", n, m.N, 1<<s.Qubits)
			}
			if !linalg.IsUnitary(m, 1e-9) {
				t.Fatalf("%s: matrix not unitary for params %v", n, ps)
			}
		}
	}
}

func TestInverses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range Names() {
		s, _ := SpecOf(n)
		qs := make([]int, s.Qubits)
		for i := range qs {
			qs[i] = i
		}
		ps := make([]float64, s.Params)
		for i := range ps {
			ps[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		g := New(n, qs, ps)
		inv := Inverse(g)
		prod := linalg.Mul(Matrix(g), Matrix(inv))
		if !linalg.EqualUpToPhase(prod, linalg.Identity(prod.N), 1e-9) {
			t.Fatalf("%s: g·g† != I (mod phase)", n)
		}
	}
}

func TestKnownIdentities(t *testing.T) {
	id2 := linalg.Identity(2)
	check := func(name string, m linalg.Matrix, want linalg.Matrix) {
		t.Helper()
		if !linalg.EqualUpToPhase(m, want, tol) {
			t.Errorf("%s failed:\n%v\nwant\n%v", name, m, want)
		}
	}
	check("H*H = I", linalg.Mul(Matrix(NewH(0)), Matrix(NewH(0))), id2)
	check("T*T = S", linalg.Mul(Matrix(NewT(0)), Matrix(NewT(0))), Matrix(NewS(0)))
	check("S*S = Z", linalg.Mul(Matrix(NewS(0)), Matrix(NewS(0))), Matrix(NewZ(0)))
	check("SX*SX = X", linalg.Mul(Matrix(NewSX(0)), Matrix(NewSX(0))), Matrix(NewX(0)))
	check("HXH = Z", linalg.MulAll(Matrix(NewH(0)), Matrix(NewX(0)), Matrix(NewH(0))), Matrix(NewZ(0)))
	check("HZH = X", linalg.MulAll(Matrix(NewH(0)), Matrix(NewZ(0)), Matrix(NewH(0))), Matrix(NewX(0)))
	check("Rz(pi) ~ Z", Matrix(NewRz(math.Pi, 0)), Matrix(NewZ(0)))
	check("Rx(pi) ~ X", Matrix(NewRx(math.Pi, 0)), Matrix(NewX(0)))
	check("Ry(pi) ~ Y", Matrix(NewRy(math.Pi, 0)), Matrix(NewY(0)))
	check("U1(pi/4) = T", Matrix(NewU1(math.Pi/4, 0)), Matrix(NewT(0)))
	check("U3(pi/2,0,pi) ~ H", Matrix(NewU3(math.Pi/2, 0, math.Pi, 0)), Matrix(NewH(0)))
	check("U2(0,pi) ~ H", Matrix(NewU2(0, math.Pi, 0)), Matrix(NewH(0)))
	// CX in the paper's Example 3.1.
	wantCX := linalg.FromRows([][]complex128{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0},
	})
	check("CX matrix", Matrix(NewCX(0, 1)), wantCX)
}

func TestPaperExample31(t *testing.T) {
	// C := T q1; CX q0 q1 has unitary U_CX · (I ⊗ U_T).
	ut := Matrix(NewT(0))
	ucx := Matrix(NewCX(0, 1))
	want := linalg.Mul(ucx, linalg.Kron(linalg.Identity(2), ut))

	u := linalg.Identity(4)
	linalg.ApplyGateLeft(ut, []int{1}, 2, u)
	linalg.ApplyGateLeft(ucx, []int{0, 1}, 2, u)
	if !linalg.Equal(u, want, tol) {
		t.Fatalf("Example 3.1 mismatch:\n%v\nwant\n%v", u, want)
	}
}

func TestCZSymmetric(t *testing.T) {
	a := linalg.Expand(Matrix(NewCZ(0, 1)), []int{0, 1}, 2)
	b := linalg.Expand(Matrix(NewCZ(0, 1)), []int{1, 0}, 2)
	if !linalg.Equal(a, b, tol) {
		t.Fatal("CZ should be symmetric in its qubits")
	}
}

func TestCCXBothControls(t *testing.T) {
	// CCX fires only when both controls are 1: |110> -> |111>.
	m := Matrix(NewCCX(0, 1, 2))
	if m.At(7, 6) != 1 || m.At(6, 7) != 1 || m.At(5, 5) != 1 {
		t.Fatal("CCX matrix wrong")
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown gate", func() { New("bogus", []int{0}, nil) })
	mustPanic("wrong arity", func() { New(CX, []int{0}, nil) })
	mustPanic("wrong params", func() { New(Rz, []int{0}, nil) })
	mustPanic("dup qubits", func() { New(CX, []int{1, 1}, nil) })
	mustPanic("negative qubit", func() { New(H, []int{-1}, nil) })
}

func TestIsIdentityAngle(t *testing.T) {
	if !NewRz(0, 0).IsIdentityAngle(tol) {
		t.Error("rz(0) should be identity")
	}
	if !NewRz(2*math.Pi, 0).IsIdentityAngle(tol) {
		t.Error("rz(2pi) should be identity mod phase")
	}
	if NewRz(math.Pi, 0).IsIdentityAngle(tol) {
		t.Error("rz(pi) is not identity")
	}
	if NewH(0).IsIdentityAngle(tol) {
		t.Error("h is not identity")
	}
}

func TestGateString(t *testing.T) {
	if s := NewCX(0, 1).String(); s != "cx q[0], q[1]" {
		t.Errorf("String() = %q", s)
	}
	if s := NewRz(1.5, 2).String(); s != "rz(1.5) q[2]" {
		t.Errorf("String() = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewRz(1.0, 3)
	c := g.Clone()
	c.Qubits[0] = 5
	c.Params[0] = 9
	if g.Qubits[0] != 3 || g.Params[0] != 1.0 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestMatrixIntoOverwritesStale pins MatrixInto's reuse contract: into a
// buffer holding stale entries it writes exactly Matrix's bits.
func TestMatrixIntoOverwritesStale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range Names() {
		s, _ := SpecOf(n)
		qs := make([]int, s.Qubits)
		ps := make([]float64, s.Params)
		for i := range qs {
			qs[i] = i
		}
		for i := range ps {
			ps[i] = rng.Float64()*4*math.Pi - 2*math.Pi
		}
		g := New(n, qs, ps)
		dst := linalg.New(1 << s.Qubits)
		for i := range dst.Data {
			dst.Data[i] = complex(float64(i)+0.5, -1)
		}
		MatrixInto(g, dst)
		want := Matrix(g)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("%s: entry %d is %v, Matrix has %v", n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}
