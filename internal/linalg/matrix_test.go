package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-10

func randomUnitary2(rng *rand.Rand) Matrix {
	// Random SU(2) via Euler angles with a random global phase.
	t := rng.Float64() * math.Pi
	p := rng.Float64()*2*math.Pi - math.Pi
	l := rng.Float64()*2*math.Pi - math.Pi
	a := rng.Float64()*2*math.Pi - math.Pi
	c := complex(math.Cos(t/2), 0)
	s := complex(math.Sin(t/2), 0)
	e := func(x float64) complex128 { return cmplx.Exp(complex(0, x)) }
	u := FromRows([][]complex128{
		{c, -e(l) * s},
		{e(p) * s, e(p+l) * c},
	})
	return Scale(e(a), u)
}

// randomUnitary builds a random 2^n unitary as a product of random 2x2
// blocks embedded on random qubits plus CX-like permutations.
func randomUnitary(n int, rng *rand.Rand) Matrix {
	u := Identity(1 << n)
	cx := FromRows([][]complex128{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0},
	})
	for i := 0; i < 4*n; i++ {
		q := rng.Intn(n)
		ApplyGateLeft(randomUnitary2(rng), []int{q}, n, u)
		if n >= 2 {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a != b {
				ApplyGateLeft(cx, []int{a, b}, n, u)
			}
		}
	}
	return u
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randomUnitary(3, rng)
	if !Equal(Mul(Identity(8), u), u, tol) {
		t.Fatal("I*U != U")
	}
	if !Equal(Mul(u, Identity(8)), u, tol) {
		t.Fatal("U*I != U")
	}
}

func TestUnitarity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 4; n++ {
		u := randomUnitary(n, rng)
		if !IsUnitary(u, 1e-9) {
			t.Fatalf("random %d-qubit matrix not unitary", n)
		}
	}
}

func TestKronDims(t *testing.T) {
	a := Identity(2)
	b := Identity(4)
	k := Kron(a, b)
	if k.N != 8 {
		t.Fatalf("Kron dim = %d, want 8", k.N)
	}
	if !Equal(k, Identity(8), tol) {
		t.Fatal("I2 (x) I4 != I8")
	}
}

func TestKronMatchesExpand(t *testing.T) {
	// For a gate on the top qubit of 2, Expand == g (x) I.
	rng := rand.New(rand.NewSource(3))
	g := randomUnitary2(rng)
	want := Kron(g, Identity(2))
	got := Expand(g, []int{0}, 2)
	if !Equal(got, want, tol) {
		t.Fatalf("Expand(q0) mismatch:\n%v\nvs\n%v", got, want)
	}
	want = Kron(Identity(2), g)
	got = Expand(g, []int{1}, 2)
	if !Equal(got, want, tol) {
		t.Fatal("Expand(q1) mismatch")
	}
}

func TestExpandTwoQubitReversed(t *testing.T) {
	// CX with control=q1, target=q0 must differ from control=q0, target=q1.
	cx := FromRows([][]complex128{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0},
	})
	a := Expand(cx, []int{0, 1}, 2)
	b := Expand(cx, []int{1, 0}, 2)
	if Equal(a, b, tol) {
		t.Fatal("CX(0,1) == CX(1,0): qubit order ignored")
	}
	// CX(1,0): control is q1 (LSB), target q0 (MSB). |01> -> |11>, |11> -> |01>.
	want := New(4)
	want.Set(0, 0, 1)
	want.Set(3, 1, 1)
	want.Set(2, 2, 1)
	want.Set(1, 3, 1)
	if !Equal(b, want, tol) {
		t.Fatalf("CX(1,0) matrix wrong:\n%v", b)
	}
}

func TestHSDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := randomUnitary(3, rng)
	if d := HSDistance(u, u); d > tol {
		t.Fatalf("Δ(U,U) = %g, want 0", d)
	}
	// Global phase invariance.
	ph := cmplx.Exp(complex(0, 1.2345))
	if d := HSDistance(u, Scale(ph, u)); d > tol {
		t.Fatalf("Δ(U, e^{iφ}U) = %g, want 0", d)
	}
	// Symmetry.
	v := randomUnitary(3, rng)
	if math.Abs(HSDistance(u, v)-HSDistance(v, u)) > tol {
		t.Fatal("Δ not symmetric")
	}
	// Bounded by 1.
	if d := HSDistance(u, v); d < 0 || d > 1 {
		t.Fatalf("Δ = %g out of [0,1]", d)
	}
}

func TestHSTriangleLikeAdditivity(t *testing.T) {
	// The paper's Thm 4.2 relies on Δ(U,U'') ≤ Δ(U,U') + Δ(U',U'') for
	// unitaries. Check on random triples.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		u := randomUnitary(2, rng)
		v := randomUnitary(2, rng)
		w := randomUnitary(2, rng)
		if HSDistance(u, w) > HSDistance(u, v)+HSDistance(v, w)+tol {
			t.Fatalf("triangle inequality violated at trial %d", i)
		}
	}
}

func TestTraceAdjointMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomUnitary(2, rng)
	b := randomUnitary(2, rng)
	want := Trace(Mul(Adjoint(a), b))
	got := TraceAdjointMul(a, b)
	if cmplx.Abs(want-got) > tol {
		t.Fatalf("TraceAdjointMul = %v, want %v", got, want)
	}
}

func TestAdjointInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnitary(2, rng)
		return Equal(Adjoint(Adjoint(u)), u, tol)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(8))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomUnitary(2, rng)
		b := randomUnitary(2, rng)
		c := randomUnitary(2, rng)
		return Equal(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestApplyGateVecMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomUnitary2(rng)
	n := 3
	dim := 1 << n
	v := make([]complex128, dim)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for q := 0; q < n; q++ {
		vv := make([]complex128, dim)
		copy(vv, v)
		ApplyGateVec(g, []int{q}, n, vv)
		full := Expand(g, []int{q}, n)
		want := make([]complex128, dim)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				want[i] += full.At(i, j) * v[j]
			}
		}
		for i := range want {
			if cmplx.Abs(want[i]-vv[i]) > 1e-9 {
				t.Fatalf("q=%d: vec apply mismatch at %d", q, i)
			}
		}
	}
}

func TestEulerU3Angles(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		u := randomUnitary2(rng)
		th, ph, la, al := U3Angles(u)
		rebuilt := Scale(cmplx.Exp(complex(0, al)), u3ForTest(th, ph, la))
		if !Equal(rebuilt, u, 1e-9) {
			t.Fatalf("U3Angles roundtrip failed at trial %d:\n%v\nvs\n%v", i, rebuilt, u)
		}
	}
	// Edge cases: diagonal and antidiagonal unitaries.
	diag := FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, 0.7))}})
	th, ph, la, al := U3Angles(diag)
	if th > tol || ph != 0 {
		t.Fatalf("diagonal: theta=%g phi=%g, want 0,0", th, ph)
	}
	rebuilt := Scale(cmplx.Exp(complex(0, al)), u3ForTest(th, ph, la))
	if !Equal(rebuilt, diag, 1e-9) {
		t.Fatal("diagonal roundtrip failed")
	}
	anti := FromRows([][]complex128{{0, 1}, {1, 0}})
	th, _, la, _ = U3Angles(anti)
	if math.Abs(th-math.Pi) > tol || la != 0 {
		t.Fatalf("antidiagonal: theta=%g lambda=%g, want pi,0", th, la)
	}
}

func TestEulerZYZ(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := func(x float64) complex128 { return cmplx.Exp(complex(0, x)) }
	rz := func(a float64) Matrix {
		return FromRows([][]complex128{{e(-a / 2), 0}, {0, e(a / 2)}})
	}
	ry := func(a float64) Matrix {
		c := complex(math.Cos(a/2), 0)
		s := complex(math.Sin(a/2), 0)
		return FromRows([][]complex128{{c, -s}, {s, c}})
	}
	for i := 0; i < 100; i++ {
		u := randomUnitary2(rng)
		th, ph, la, al := EulerZYZ(u)
		rebuilt := Scale(e(al), MulAll(rz(ph), ry(th), rz(la)))
		if !Equal(rebuilt, u, 1e-9) {
			t.Fatalf("ZYZ roundtrip failed at trial %d", i)
		}
	}
}

func TestNormAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-0.5, -0.5},
	}
	for _, c := range cases {
		if got := NormAngle(c.in); math.Abs(got-c.want) > tol {
			t.Errorf("NormAngle(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestIsMultipleOf(t *testing.T) {
	if !IsMultipleOf(math.Pi/2, math.Pi/4, 1e-9) {
		t.Error("pi/2 should be a multiple of pi/4")
	}
	if IsMultipleOf(0.3, math.Pi/4, 1e-9) {
		t.Error("0.3 is not a multiple of pi/4")
	}
	if !IsMultipleOf(-math.Pi/4, math.Pi/4, 1e-9) {
		t.Error("-pi/4 should be a multiple of pi/4")
	}
	if !IsMultipleOf(2*math.Pi, 2*math.Pi, 1e-9) {
		t.Error("2pi should be a multiple of 2pi")
	}
}

func u3ForTest(t, p, l float64) Matrix {
	e := func(x float64) complex128 { return cmplx.Exp(complex(0, x)) }
	c := complex(math.Cos(t/2), 0)
	s := complex(math.Sin(t/2), 0)
	return FromRows([][]complex128{
		{c, -e(l) * s},
		{e(p) * s, e(p+l) * c},
	})
}

// TestMulIntoOverwritesStale pins MulInto's reuse contract: into a buffer
// holding stale entries it writes exactly Mul's bits.
func TestMulIntoOverwritesStale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 8} {
		a, b, dst := New(n), New(n), New(n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			dst.Data[i] = complex(float64(i), 1)
		}
		a.Data[1] = 0 // exercise the zero-skip
		MulInto(dst, a, b)
		want := Mul(a, b)
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: entry %d is %v, Mul has %v", n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}
