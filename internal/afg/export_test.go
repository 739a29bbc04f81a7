package afg

import "encoding/json"

// Test-only handles for the external afg_test package, whose tests may
// import the generators that themselves import afg.
var CheckAgainstEncodingJSON = checkAgainstEncodingJSON

// TakesFastPath reports whether Decode reads data without json.Unmarshal.
var TakesFastPath = takesFastPath

func takesFastPath(data []byte) bool {
	d := decoder{data: data}
	return d.document() != nil
}

// LayeredDocument is an n-task indented document of layeredWire's shape,
// three parents a task, for the external package's benchmarks.
func LayeredDocument(n int) ([]byte, error) {
	return json.MarshalIndent(layeredWire(n, 50, 3, 1), "", "  ")
}
