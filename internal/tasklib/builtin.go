package tasklib

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fourier"
	"repro/internal/matrix"
)

// Cost-scaling reference sizes: BaseTime/MemReq/OutputBytes are calibrated
// for these input sizes; CostScale extrapolates to the editor-chosen size.
const (
	baseMatrixN = 128
	baseSignalN = 1024
)

func cubeScale(params map[string]string) float64 {
	n := paramInt(params, "n", baseMatrixN)
	r := float64(n) / baseMatrixN
	return r * r * r
}

func squareScale(params map[string]string) float64 {
	n := paramInt(params, "n", baseMatrixN)
	r := float64(n) / baseMatrixN
	return r * r
}

func nlognScale(params map[string]string) float64 {
	n := paramInt(params, "n", baseSignalN)
	r := float64(n) / baseSignalN
	l := math.Log2(float64(n)+1) / math.Log2(baseSignalN)
	return r * l
}

func paramInt(params map[string]string, key string, def int) int {
	a := Args{Params: params}
	v, err := a.IntParam(key, def)
	if err != nil || v <= 0 {
		return def
	}
	return v
}

func need(args Args, n int) error {
	if len(args.Inputs) != n {
		return fmt.Errorf("%w: want %d inputs, got %d", ErrBadInput, n, len(args.Inputs))
	}
	return nil
}

func checkCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// mustRegisterBuiltins installs every built-in library task.
func mustRegisterBuiltins(r *Registry) {
	for _, s := range builtinSpecs() {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}
}

func builtinSpecs() []Spec {
	return []Spec{
		// ----------------------------------------------------- matrix ops
		{
			Name: "matrix.generate", Library: LibMatrix,
			Description: "Generate a random diagonally dominant n×n matrix (params: n, seed).",
			BaseTime:    0.002, MemReq: 8 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: squareScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				n, err := args.IntParam("n", baseMatrixN)
				if err != nil {
					return Value{}, err
				}
				seed, err := args.IntParam("seed", 1)
				if err != nil {
					return Value{}, err
				}
				if n < 1 {
					return Value{}, fmt.Errorf("%w: n=%d", ErrBadParam, n)
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				m := matrix.New(n, n)
				for i := range m.Data {
					m.Data[i] = rng.NormFloat64()
				}
				for i := 0; i < n; i++ {
					var s float64
					for j := 0; j < n; j++ {
						s += math.Abs(m.At(i, j))
					}
					m.Set(i, i, s+1)
				}
				return MatrixValue(m), nil
			},
		},
		{
			Name: "matrix.vector", Library: LibMatrix,
			Description: "Generate a random length-n vector (params: n, seed).",
			BaseTime:    0.0002, MemReq: 8 * baseMatrixN, OutputBytes: 8 * baseMatrixN,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "n", baseMatrixN)) / baseMatrixN
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				n, err := args.IntParam("n", baseMatrixN)
				if err != nil {
					return Value{}, err
				}
				seed, err := args.IntParam("seed", 2)
				if err != nil {
					return Value{}, err
				}
				if n < 1 {
					return Value{}, fmt.Errorf("%w: n=%d", ErrBadParam, n)
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return VectorValue(v), nil
			},
		},
		{
			Name: "matrix.lu", Library: LibMatrix,
			Description: "LU decomposition with partial pivoting (input: matrix).",
			BaseTime:    0.02, MemReq: 8 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: cubeScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				f, err := matrix.Factor(a, args.Processors)
				if err != nil {
					return Value{}, err
				}
				return Value{Kind: KindLU, Matrix: f.LU, Pivot: f.Pivot}, nil
			},
		},
		{
			Name: "matrix.inverse", Library: LibMatrix,
			Description: "Matrix inversion via LU (input: matrix).",
			BaseTime:    0.06, MemReq: 16 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: cubeScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				if err := checkCtx(ctx); err != nil {
					return Value{}, err
				}
				inv, err := matrix.Inverse(a)
				if err != nil {
					return Value{}, err
				}
				return MatrixValue(inv), nil
			},
		},
		{
			Name: "matrix.multiply", Library: LibMatrix,
			Description: "Matrix multiplication (inputs: A, B); parallel mode splits rows.",
			BaseTime:    0.015, MemReq: 24 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: cubeScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 2); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[1].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				c, err := a.Mul(b, args.Processors)
				if err != nil {
					return Value{}, err
				}
				return MatrixValue(c), nil
			},
		},
		{
			Name: "matrix.add", Library: LibMatrix,
			Description: "Matrix addition (inputs: A, B).",
			BaseTime:    0.001, MemReq: 24 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: squareScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 2); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[1].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				c, err := a.Add(b)
				if err != nil {
					return Value{}, err
				}
				return MatrixValue(c), nil
			},
		},
		{
			Name: "matrix.transpose", Library: LibMatrix,
			Description: "Matrix transpose (input: A).",
			BaseTime:    0.001, MemReq: 16 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN * baseMatrixN,
			CostScale: squareScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				return MatrixValue(a.Transpose()), nil
			},
		},
		{
			Name: "matrix.solve", Library: LibMatrix,
			Description: "Solve A·x = b (inputs: LU factor or matrix A, vector b).",
			BaseTime:    0.004, MemReq: 8 * baseMatrixN * baseMatrixN, OutputBytes: 8 * baseMatrixN,
			CostScale: squareScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 2); err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[1].AsVector()
				if err != nil {
					return Value{}, err
				}
				in := args.Inputs[0]
				switch in.Kind {
				case KindLU:
					f := &matrix.LU{N: in.Matrix.Rows, LU: in.Matrix, Pivot: in.Pivot}
					x, err := f.Solve(b)
					if err != nil {
						return Value{}, err
					}
					return VectorValue(x), nil
				case KindMatrix:
					x, err := matrix.Solve(in.Matrix, b)
					if err != nil {
						return Value{}, err
					}
					return VectorValue(x), nil
				default:
					return Value{}, fmt.Errorf("%w: solve wants matrix or LU, got %q", ErrBadInput, in.Kind)
				}
			},
		},
		{
			Name: "matrix.residual", Library: LibMatrix,
			Description: "Residual ‖A·x − b‖∞ (inputs: A, x, b) for solution checking.",
			BaseTime:    0.001, MemReq: 8 * baseMatrixN * baseMatrixN, OutputBytes: 8,
			CostScale: squareScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 3); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				x, err := args.Inputs[1].AsVector()
				if err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[2].AsVector()
				if err != nil {
					return Value{}, err
				}
				res, err := matrix.Residual(a, x, b)
				if err != nil {
					return Value{}, err
				}
				return ScalarValue(res), nil
			},
		},

		// ------------------------------------------------ Fourier analysis
		{
			Name: "fourier.signal", Library: LibFourier,
			Description: "Generate a noisy multi-tone test signal (params: n, tone, seed).",
			BaseTime:    0.0005, MemReq: 8 * baseSignalN, OutputBytes: 8 * baseSignalN,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "n", baseSignalN)) / baseSignalN
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				n, err := args.IntParam("n", baseSignalN)
				if err != nil {
					return Value{}, err
				}
				tone, err := args.IntParam("tone", 17)
				if err != nil {
					return Value{}, err
				}
				seed, err := args.IntParam("seed", 3)
				if err != nil {
					return Value{}, err
				}
				n = fourier.NextPowerOfTwo(n)
				rng := rand.New(rand.NewSource(int64(seed)))
				sig := make([]float64, n)
				for i := range sig {
					tt := float64(i) / float64(n)
					sig[i] = 3*math.Sin(2*math.Pi*float64(tone)*tt) +
						math.Sin(2*math.Pi*float64(tone*3)*tt)*0.5 +
						rng.NormFloat64()*0.2
				}
				return VectorValue(sig), nil
			},
		},
		{
			Name: "fourier.spectrum", Library: LibFourier,
			Description: "Power spectrum of a real signal (input: vector).",
			BaseTime:    0.002, MemReq: 32 * baseSignalN, OutputBytes: 4 * baseSignalN,
			CostScale: nlognScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				sig, err := args.Inputs[0].AsVector()
				if err != nil {
					return Value{}, err
				}
				ps, err := fourier.PowerSpectrum(sig)
				if err != nil {
					return Value{}, err
				}
				return VectorValue(ps), nil
			},
		},
		{
			Name: "fourier.dominant", Library: LibFourier,
			Description: "Dominant non-DC frequency bin of a signal (input: vector).",
			BaseTime:    0.002, MemReq: 32 * baseSignalN, OutputBytes: 8,
			CostScale: nlognScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				sig, err := args.Inputs[0].AsVector()
				if err != nil {
					return Value{}, err
				}
				k, err := fourier.DominantFrequency(sig)
				if err != nil {
					return Value{}, err
				}
				return ScalarValue(float64(k)), nil
			},
		},
		{
			Name: "fourier.convolve", Library: LibFourier,
			Description: "FFT-based convolution (inputs: signal, kernel).",
			BaseTime:    0.004, MemReq: 64 * baseSignalN, OutputBytes: 8 * baseSignalN,
			CostScale: nlognScale,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 2); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsVector()
				if err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[1].AsVector()
				if err != nil {
					return Value{}, err
				}
				out, err := fourier.Convolve(a, b)
				if err != nil {
					return Value{}, err
				}
				return VectorValue(out), nil
			},
		},

		// ------------------------------------------------------------ C3I
		{
			Name: "c3i.sensordata", Library: LibC3I,
			Description: "Simulate noisy multi-sensor observations of a moving target (params: sensors, samples, seed).",
			BaseTime:    0.001, MemReq: 8 * 4 * baseSignalN, OutputBytes: 8 * 4 * baseSignalN,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "sensors", 4)*paramInt(p, "samples", baseSignalN)) /
					float64(4*baseSignalN)
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				sensors, err := args.IntParam("sensors", 4)
				if err != nil {
					return Value{}, err
				}
				samples, err := args.IntParam("samples", baseSignalN)
				if err != nil {
					return Value{}, err
				}
				seed, err := args.IntParam("seed", 4)
				if err != nil {
					return Value{}, err
				}
				if sensors < 1 || samples < 1 {
					return Value{}, fmt.Errorf("%w: sensors=%d samples=%d", ErrBadParam, sensors, samples)
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				obs := matrix.New(sensors, samples)
				// Target: constant-velocity with a mid-course manoeuvre.
				for t := 0; t < samples; t++ {
					truth := 0.02 * float64(t)
					if t > samples/2 {
						truth += 0.05 * float64(t-samples/2)
					}
					for s := 0; s < sensors; s++ {
						noise := rng.NormFloat64() * (0.5 + 0.5*float64(s%3))
						obs.Set(s, t, truth+noise)
					}
				}
				return MatrixValue(obs), nil
			},
		},
		{
			Name: "c3i.fusion", Library: LibC3I,
			Description: "Fuse multi-sensor tracks into one estimate by variance-weighted averaging and smoothing (input: sensors×samples matrix).",
			BaseTime:    0.003, MemReq: 8 * 8 * baseSignalN, OutputBytes: 8 * baseSignalN,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "samples", baseSignalN)) / baseSignalN
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				obs, err := args.Inputs[0].AsMatrix()
				if err != nil {
					return Value{}, err
				}
				sensors, samples := obs.Rows, obs.Cols
				// Per-sensor variance estimate from first differences.
				weights := make([]float64, sensors)
				var wsum float64
				for s := 0; s < sensors; s++ {
					var ss float64
					for t := 1; t < samples; t++ {
						d := obs.At(s, t) - obs.At(s, t-1)
						ss += d * d
					}
					v := ss / float64(max(samples-1, 1))
					if v < 1e-9 {
						v = 1e-9
					}
					weights[s] = 1 / v
					wsum += weights[s]
				}
				fused := make([]float64, samples)
				for t := 0; t < samples; t++ {
					var acc float64
					for s := 0; s < sensors; s++ {
						acc += weights[s] * obs.At(s, t)
					}
					fused[t] = acc / wsum
				}
				// Exponential smoothing pass.
				const alpha = 0.15
				for t := 1; t < samples; t++ {
					fused[t] = alpha*fused[t] + (1-alpha)*fused[t-1]
				}
				return VectorValue(fused), nil
			},
		},
		{
			Name: "c3i.correlate", Library: LibC3I,
			Description: "Pearson correlation of two tracks (inputs: vector, vector) for track association.",
			BaseTime:    0.001, MemReq: 8 * 2 * baseSignalN, OutputBytes: 8,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "samples", baseSignalN)) / baseSignalN
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 2); err != nil {
					return Value{}, err
				}
				a, err := args.Inputs[0].AsVector()
				if err != nil {
					return Value{}, err
				}
				b, err := args.Inputs[1].AsVector()
				if err != nil {
					return Value{}, err
				}
				n := len(a)
				if len(b) < n {
					n = len(b)
				}
				if n == 0 {
					return Value{}, fmt.Errorf("%w: empty track", ErrBadInput)
				}
				var ma, mb float64
				for i := 0; i < n; i++ {
					ma += a[i]
					mb += b[i]
				}
				ma /= float64(n)
				mb /= float64(n)
				var cov, va, vb float64
				for i := 0; i < n; i++ {
					da, db2 := a[i]-ma, b[i]-mb
					cov += da * db2
					va += da * da
					vb += db2 * db2
				}
				if va == 0 || vb == 0 {
					return ScalarValue(0), nil
				}
				return ScalarValue(cov / math.Sqrt(va*vb)), nil
			},
		},
		{
			Name: "c3i.threat", Library: LibC3I,
			Description: "Threat assessment: score a fused track by closing speed and proximity (input: vector).",
			BaseTime:    0.0005, MemReq: 8 * baseSignalN, OutputBytes: 8,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "samples", baseSignalN)) / baseSignalN
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				if err := need(args, 1); err != nil {
					return Value{}, err
				}
				track, err := args.Inputs[0].AsVector()
				if err != nil {
					return Value{}, err
				}
				if len(track) < 2 {
					return ScalarValue(0), nil
				}
				// Closing speed from the last quarter of the track.
				q := len(track) / 4
				if q < 1 {
					q = 1
				}
				speed := (track[len(track)-1] - track[len(track)-1-q]) / float64(q)
				prox := math.Abs(track[len(track)-1])
				score := math.Max(0, speed*100) / (1 + prox/100)
				return ScalarValue(score), nil
			},
		},

		// ------------------------------------------------------ synthetic
		{
			Name: "synthetic.noop", Library: LibSynthetic,
			Description: "No-op task for scheduler and runtime testing.",
			BaseTime:    0.0001, MemReq: 1024, OutputBytes: 8,
			Fn: func(ctx context.Context, args Args) (Value, error) {
				return ScalarValue(0), nil
			},
		},
		{
			Name: "synthetic.spin", Library: LibSynthetic,
			Description: "Deterministic CPU-bound busy work (params: work = inner iterations ×1000); returns a checksum.",
			BaseTime:    0.001, MemReq: 1024, OutputBytes: 8,
			CostScale: func(p map[string]string) float64 {
				return float64(paramInt(p, "work", 1))
			},
			Fn: func(ctx context.Context, args Args) (Value, error) {
				work, err := args.IntParam("work", 1)
				if err != nil {
					return Value{}, err
				}
				var acc float64
				for w := 0; w < work; w++ {
					if err := checkCtx(ctx); err != nil {
						return Value{}, err
					}
					for i := 0; i < 1000; i++ {
						acc += math.Sqrt(float64(w*1000+i) + 1)
					}
				}
				return ScalarValue(acc), nil
			},
		},
	}
}
