package tasklib

import (
	"context"
	"errors"
	"testing"

	"repro/internal/matrix"
)

// Exhaustive input-validation matrix: every built-in task must reject
// wrong-arity and wrong-kind inputs with ErrBadInput rather than panicking.
func TestAllTasksRejectBadInputs(t *testing.T) {
	reg := Default()
	wrongKind := []Value{TextValue("nope"), TextValue("nope"), TextValue("nope")}
	for _, name := range reg.Names() {
		spec, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		// Generators take no inputs; skip the wrong-kind check for them.
		switch name {
		case "matrix.generate", "matrix.vector", "fourier.signal",
			"c3i.sensordata", "synthetic.noop", "synthetic.spin":
			continue
		}
		for arity := 0; arity <= 3; arity++ {
			_, err := reg.Execute(context.Background(), name, Args{Inputs: wrongKind[:arity]})
			if err == nil {
				t.Errorf("%s accepted %d text inputs", name, arity)
			} else if !errors.Is(err, ErrBadInput) {
				t.Errorf("%s: err = %v, want ErrBadInput", name, err)
			}
		}
		_ = spec
	}
}

// TestAllTasksRejectEmptyMatrices: a matrix with a zero dimension decodes
// (the wire keeps a non-nil empty matrix), but no kernel can take one:
// matrix.New panics on it. Every task must refuse it with ErrBadInput,
// whether it is every input or beside a well-formed one.
func TestAllTasksRejectEmptyMatrices(t *testing.T) {
	reg := Default()
	good := MatrixValue(matrix.Identity(4))
	for _, empty := range []*matrix.Matrix{{}, {Rows: 2}, {Cols: 3}} {
		bad := MatrixValue(empty)
		for _, name := range reg.Names() {
			switch name {
			case "matrix.generate", "matrix.vector", "fourier.signal",
				"c3i.sensordata", "synthetic.noop", "synthetic.spin":
				continue
			}
			for _, inputs := range [][]Value{{bad}, {bad, bad}, {bad, good}, {good, bad}, {bad, bad, bad}} {
				_, err := reg.Execute(context.Background(), name, Args{Inputs: inputs, Processors: 1})
				if !errors.Is(err, ErrBadInput) {
					t.Errorf("%s on %d inputs with a %dx%d matrix: err = %v, want ErrBadInput",
						name, len(inputs), empty.Rows, empty.Cols, err)
				}
			}
		}
	}
}

func TestGeneratorsRejectBadParams(t *testing.T) {
	reg := Default()
	cases := map[string]map[string]string{
		"matrix.generate": {"n": "-3"},
		"matrix.vector":   {"n": "0"},
		"c3i.sensordata":  {"sensors": "0"},
	}
	for name, params := range cases {
		if _, err := reg.Execute(context.Background(), name, Args{Params: params}); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s(%v): err = %v, want ErrBadParam", name, params, err)
		}
	}
}

// TestSizeParamsBelowOneNeverPanic: a document or a RunTask call may carry
// any parameter, so every task takes each size parameter at -1 and 0 —
// through its cost scale too — and either runs or refuses it, never panics.
func TestSizeParamsBelowOneNeverPanic(t *testing.T) {
	reg := Default()
	for _, name := range reg.Names() {
		spec, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"n", "samples", "sensors", "work"} {
			for _, v := range []string{"-1", "0"} {
				params := map[string]string{key: v}
				if spec.CostScale != nil {
					spec.CostScale(params)
				}
				_, err := reg.Execute(context.Background(), name, Args{Params: params, Processors: 1})
				if err != nil && !errors.Is(err, ErrBadParam) && !errors.Is(err, ErrBadInput) {
					t.Errorf("%s(%s=%s): err = %v, want a run or ErrBadParam", name, key, v, err)
				}
			}
		}
	}
}

func TestSolveDimensionMismatchSurfaces(t *testing.T) {
	reg := Default()
	a, err := reg.Execute(context.Background(), "matrix.generate", Args{Params: map[string]string{"n": "4"}})
	if err != nil {
		t.Fatal(err)
	}
	b := VectorValue([]float64{1, 2}) // wrong length
	if _, err := reg.Execute(context.Background(), "matrix.solve", Args{Inputs: []Value{a, b}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestC3IThreatShortTrack(t *testing.T) {
	out, err := Default().Execute(context.Background(), "c3i.threat",
		Args{Inputs: []Value{VectorValue([]float64{1})}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Scalar != 0 {
		t.Fatalf("single-sample track scored %v", out.Scalar)
	}
}

func TestC3ICorrelateEmptyTrack(t *testing.T) {
	_, err := Default().Execute(context.Background(), "c3i.correlate",
		Args{Inputs: []Value{VectorValue(nil), VectorValue(nil)}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v", err)
	}
}

func TestFourierSpectrumOnGeneratedSignalSizes(t *testing.T) {
	reg := Default()
	for _, n := range []string{"100", "1000"} { // non-powers of two
		sig, err := reg.Execute(context.Background(), "fourier.signal",
			Args{Params: map[string]string{"n": n}})
		if err != nil {
			t.Fatal(err)
		}
		if !isPow2(len(sig.Vector)) {
			t.Fatalf("signal length %d not padded to a power of two", len(sig.Vector))
		}
		if _, err := reg.Execute(context.Background(), "fourier.spectrum",
			Args{Inputs: []Value{sig}}); err != nil {
			t.Fatal(err)
		}
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func TestLUValueRoundTripsThroughSolve(t *testing.T) {
	// Regression for the port bug: encode/decode the LU value (as the
	// Data Manager would) before handing it to solve.
	reg := Default()
	ctx := context.Background()
	a, _ := reg.Execute(ctx, "matrix.generate", Args{Params: map[string]string{"n": "16", "seed": "9"}})
	b, _ := reg.Execute(ctx, "matrix.vector", Args{Params: map[string]string{"n": "16", "seed": "10"}})
	lu, err := reg.Execute(ctx, "matrix.lu", Args{Inputs: []Value{a}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := lu.Encode()
	if err != nil {
		t.Fatal(err)
	}
	luBack, err := DecodeValue(wire)
	if err != nil {
		t.Fatal(err)
	}
	x, err := reg.Execute(ctx, "matrix.solve", Args{Inputs: []Value{luBack, b}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.Execute(ctx, "matrix.residual", Args{Inputs: []Value{a, x, b}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar > 1e-9 {
		t.Fatalf("residual after wire round trip: %v", res.Scalar)
	}
}
