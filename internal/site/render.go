package site

import (
	"fmt"

	"repro/internal/tasklib"
)

// renderValue formats a task output compactly for RPC replies and console
// display (the I/O service's console-facing representation).
func renderValue(v tasklib.Value) string {
	switch v.Kind {
	case tasklib.KindScalar:
		return fmt.Sprintf("scalar %.6g", v.Scalar)
	case tasklib.KindVector:
		return fmt.Sprintf("vector[%d]", len(v.Vector))
	case tasklib.KindMatrix:
		return fmt.Sprintf("matrix %dx%d", v.Matrix.Rows, v.Matrix.Cols)
	case tasklib.KindLU:
		return fmt.Sprintf("lu %dx%d", v.Matrix.Rows, v.Matrix.Cols)
	case tasklib.KindText:
		return fmt.Sprintf("text %q", v.Text)
	default:
		return "none"
	}
}
