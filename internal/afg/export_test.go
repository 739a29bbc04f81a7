package afg

// Test-only handles for the external afg_test package, whose tests may
// import the generators that themselves import afg.
var CheckAgainstEncodingJSON = checkAgainstEncodingJSON

// TakesFastPath reports whether Decode reads data without json.Unmarshal.
func TakesFastPath(data []byte) bool {
	_, ok := fastWire(data)
	return ok
}
