//vdce:ignore-file floateq round-trip file: wire encoding must return scalars and matrix cells bit-identical
package tasklib

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/matrix"
)

func exec(t *testing.T, name string, args Args) Value {
	t.Helper()
	v, err := Default().Execute(context.Background(), name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestDefaultRegistryContents(t *testing.T) {
	r := Default()
	libs := r.Libraries()
	want := []string{LibC3I, LibFourier, LibMatrix, LibSynthetic}
	if len(libs) != len(want) {
		t.Fatalf("libraries = %v", libs)
	}
	for i := range want {
		if libs[i] != want[i] {
			t.Fatalf("libraries = %v, want %v", libs, want)
		}
	}
	if len(r.ByLibrary(LibMatrix)) < 8 {
		t.Fatalf("matrix library too small: %v", r.ByLibrary(LibMatrix))
	}
	if len(r.Names()) < 15 {
		t.Fatalf("registry too small: %d", len(r.Names()))
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	ok := Spec{Name: "x", Fn: func(context.Context, Args) (Value, error) { return Value{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.Execute(context.Background(), "ghost", Args{}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestArgsParamParsing(t *testing.T) {
	a := Args{Params: map[string]string{"n": "42", "bad": "xx"}}
	if v, err := a.IntParam("n", 0); err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if v, err := a.IntParam("missing", 7); err != nil || v != 7 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if _, err := a.IntParam("bad", 0); !errors.Is(err, ErrBadParam) {
		t.Fatalf("err = %v", err)
	}
	if a.Param("missing", "d") != "d" {
		t.Fatal("default param")
	}
}

func TestMatrixGenerateDeterministic(t *testing.T) {
	args := Args{Params: map[string]string{"n": "16", "seed": "5"}}
	a := exec(t, "matrix.generate", args)
	b := exec(t, "matrix.generate", args)
	if !a.Matrix.Equal(b.Matrix, 0) {
		t.Fatal("same seed should give same matrix")
	}
	if a.Matrix.Rows != 16 {
		t.Fatalf("rows = %d", a.Matrix.Rows)
	}
}

func TestLinearSolverChain(t *testing.T) {
	// The paper's Fig 3 pipeline: generate A and b, LU, solve, residual.
	a := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "32", "seed": "1"}})
	b := exec(t, "matrix.vector", Args{Params: map[string]string{"n": "32", "seed": "2"}})
	lu := exec(t, "matrix.lu", Args{Inputs: []Value{a}})
	if lu.Kind != KindLU || len(lu.Pivot) != 32 {
		t.Fatalf("lu = kind %q pivot %d", lu.Kind, len(lu.Pivot))
	}
	x := exec(t, "matrix.solve", Args{Inputs: []Value{lu, b}})
	res := exec(t, "matrix.residual", Args{Inputs: []Value{a, x, b}})
	if res.Scalar > 1e-8 {
		t.Fatalf("residual = %v", res.Scalar)
	}
}

func TestSolveFromRawMatrix(t *testing.T) {
	a := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "8"}})
	b := exec(t, "matrix.vector", Args{Params: map[string]string{"n": "8"}})
	x := exec(t, "matrix.solve", Args{Inputs: []Value{a, b}})
	res := exec(t, "matrix.residual", Args{Inputs: []Value{a, x, b}})
	if res.Scalar > 1e-8 {
		t.Fatalf("residual = %v", res.Scalar)
	}
}

func TestMatrixInverseTask(t *testing.T) {
	a := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "12"}})
	inv := exec(t, "matrix.inverse", Args{Inputs: []Value{a}})
	prod := exec(t, "matrix.multiply", Args{Inputs: []Value{a, inv}})
	if !prod.Matrix.Equal(matrix.Identity(12), 1e-8) {
		t.Fatal("A·A⁻¹ != I")
	}
}

func TestMatrixMultiplyParallelMatchesSequential(t *testing.T) {
	a := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "20", "seed": "1"}})
	b := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "20", "seed": "2"}})
	seq := exec(t, "matrix.multiply", Args{Inputs: []Value{a, b}})
	par := exec(t, "matrix.multiply", Args{Inputs: []Value{a, b}, Processors: 4})
	if !seq.Matrix.Equal(par.Matrix, 1e-12) {
		t.Fatal("parallel multiply differs")
	}
}

func TestMatrixAddTransposeTasks(t *testing.T) {
	a := exec(t, "matrix.generate", Args{Params: map[string]string{"n": "6", "seed": "1"}})
	sum := exec(t, "matrix.add", Args{Inputs: []Value{a, a}})
	for i, v := range a.Matrix.Data {
		if sum.Matrix.Data[i] != 2*v {
			t.Fatal("A+A != 2A")
		}
	}
	tr := exec(t, "matrix.transpose", Args{Inputs: []Value{a}})
	if tr.Matrix.At(0, 1) != a.Matrix.At(1, 0) {
		t.Fatal("transpose wrong")
	}
}

func TestTaskInputValidation(t *testing.T) {
	reg := Default()
	_, err := reg.Execute(context.Background(), "matrix.lu", Args{})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("missing input err = %v", err)
	}
	_, err = reg.Execute(context.Background(), "matrix.lu", Args{Inputs: []Value{ScalarValue(1)}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong kind err = %v", err)
	}
	_, err = reg.Execute(context.Background(), "matrix.generate",
		Args{Params: map[string]string{"n": "abc"}})
	if !errors.Is(err, ErrBadParam) {
		t.Fatalf("bad param err = %v", err)
	}
	_, err = reg.Execute(context.Background(), "matrix.solve",
		Args{Inputs: []Value{VectorValue([]float64{1}), VectorValue([]float64{1})}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("solve kind err = %v", err)
	}
}

func TestFourierPipeline(t *testing.T) {
	sig := exec(t, "fourier.signal", Args{Params: map[string]string{"n": "256", "tone": "9"}})
	if len(sig.Vector) != 256 {
		t.Fatalf("signal len = %d", len(sig.Vector))
	}
	dom := exec(t, "fourier.dominant", Args{Inputs: []Value{sig}})
	if dom.Scalar != 9 {
		t.Fatalf("dominant = %v, want 9", dom.Scalar)
	}
	spec := exec(t, "fourier.spectrum", Args{Inputs: []Value{sig}})
	if len(spec.Vector) != 129 {
		t.Fatalf("spectrum len = %d", len(spec.Vector))
	}
}

func TestFourierConvolveTask(t *testing.T) {
	a := VectorValue([]float64{1, 2})
	b := VectorValue([]float64{3, 4})
	out := exec(t, "fourier.convolve", Args{Inputs: []Value{a, b}})
	want := []float64{3, 10, 8}
	for i, w := range want {
		if math.Abs(out.Vector[i]-w) > 1e-9 {
			t.Fatalf("conv[%d] = %v", i, out.Vector[i])
		}
	}
}

func TestC3IPipeline(t *testing.T) {
	obs := exec(t, "c3i.sensordata", Args{Params: map[string]string{"sensors": "4", "samples": "512", "seed": "7"}})
	if obs.Matrix.Rows != 4 || obs.Matrix.Cols != 512 {
		t.Fatalf("obs shape %dx%d", obs.Matrix.Rows, obs.Matrix.Cols)
	}
	fused := exec(t, "c3i.fusion", Args{Inputs: []Value{obs}})
	if len(fused.Vector) != 512 {
		t.Fatalf("fused len = %d", len(fused.Vector))
	}
	// Fusion should reduce noise: fused track closer to the underlying
	// ramp than the noisiest single sensor. Compare total variation.
	tv := func(v []float64) float64 {
		var s float64
		for i := 1; i < len(v); i++ {
			s += math.Abs(v[i] - v[i-1])
		}
		return s
	}
	raw := make([]float64, 512)
	for t2 := 0; t2 < 512; t2++ {
		raw[t2] = obs.Matrix.At(0, t2)
	}
	if tv(fused.Vector) >= tv(raw) {
		t.Fatalf("fusion did not smooth: %v vs %v", tv(fused.Vector), tv(raw))
	}
	threat := exec(t, "c3i.threat", Args{Inputs: []Value{fused}})
	if threat.Scalar <= 0 {
		t.Fatalf("closing target should score positive threat, got %v", threat.Scalar)
	}
}

func TestC3ICorrelate(t *testing.T) {
	a := VectorValue([]float64{1, 2, 3, 4})
	same := exec(t, "c3i.correlate", Args{Inputs: []Value{a, a}})
	if math.Abs(same.Scalar-1) > 1e-12 {
		t.Fatalf("self correlation = %v", same.Scalar)
	}
	anti := exec(t, "c3i.correlate", Args{Inputs: []Value{a, VectorValue([]float64{4, 3, 2, 1})}})
	if math.Abs(anti.Scalar+1) > 1e-12 {
		t.Fatalf("anti correlation = %v", anti.Scalar)
	}
	flat := exec(t, "c3i.correlate", Args{Inputs: []Value{a, VectorValue([]float64{5, 5, 5, 5})}})
	if flat.Scalar != 0 {
		t.Fatalf("flat correlation = %v", flat.Scalar)
	}
}

func TestSyntheticSpinCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Default().Execute(ctx, "synthetic.spin", Args{Params: map[string]string{"work": "100000"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSyntheticSpinDeterministic(t *testing.T) {
	args := Args{Params: map[string]string{"work": "3"}}
	a := exec(t, "synthetic.spin", args)
	b := exec(t, "synthetic.spin", args)
	if a.Scalar != b.Scalar {
		t.Fatal("spin checksum not deterministic")
	}
}

func TestCostScaling(t *testing.T) {
	r := Default()
	lu, err := r.Get("matrix.lu")
	if err != nil {
		t.Fatal(err)
	}
	small := lu.Scale(map[string]string{"n": "128"})
	big := lu.Scale(map[string]string{"n": "256"})
	if math.Abs(small-1) > 1e-12 {
		t.Fatalf("base scale = %v", small)
	}
	if math.Abs(big-8) > 1e-12 {
		t.Fatalf("2x size should be 8x cost (cubic), got %v", big)
	}
	gen, _ := r.Get("matrix.generate")
	if g := gen.Scale(map[string]string{"n": "256"}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("2x size should be 4x cost (square), got %v", g)
	}
	// Bad/absent params fall back to 1.
	if lu.Scale(map[string]string{"n": "garbage"}) != 1 {
		t.Fatal("garbage n should fall back to base scale")
	}
	noop, _ := r.Get("synthetic.noop")
	if noop.Scale(nil) != 1 {
		t.Fatal("nil CostScale should be 1")
	}
}

func TestValueEncodingRoundTrip(t *testing.T) {
	m := matrix.Identity(4)
	vals := []Value{
		MatrixValue(m),
		VectorValue([]float64{1, 2, 3}),
		ScalarValue(4.5),
		TextValue("hello"),
		{Kind: KindLU, Matrix: m, Pivot: []int{0, 1, 2, 3}},
	}
	for _, v := range vals {
		data, err := v.Encode()
		if err != nil {
			t.Fatalf("%s: %v", v.Kind, err)
		}
		back, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("%s: %v", v.Kind, err)
		}
		if back.Kind != v.Kind {
			t.Fatalf("kind %q -> %q", v.Kind, back.Kind)
		}
		switch v.Kind {
		case KindMatrix, KindLU:
			if !back.Matrix.Equal(v.Matrix, 0) {
				t.Fatal("matrix changed")
			}
		case KindVector:
			if len(back.Vector) != len(v.Vector) {
				t.Fatal("vector changed")
			}
		case KindScalar:
			if back.Scalar != v.Scalar {
				t.Fatal("scalar changed")
			}
		case KindText:
			if back.Text != v.Text {
				t.Fatal("text changed")
			}
		}
	}
}

func TestDecodeValueGarbage(t *testing.T) {
	if _, err := DecodeValue([]byte("junk")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestValueSizeBytes(t *testing.T) {
	small := ScalarValue(1).SizeBytes()
	big := MatrixValue(matrix.New(64, 64)).SizeBytes()
	if big <= small {
		t.Fatal("matrix should be bigger than scalar")
	}
	if big < 64*64*8 {
		t.Fatalf("matrix size underestimated: %d", big)
	}
}

func TestValueAccessorsErrors(t *testing.T) {
	if _, err := ScalarValue(1).AsMatrix(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v", err)
	}
	if _, err := MatrixValue(nil).AsMatrix(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil matrix err = %v", err)
	}
	if _, err := ScalarValue(1).AsVector(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v", err)
	}
}
