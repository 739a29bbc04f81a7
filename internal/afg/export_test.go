package afg

// Test-only handles for the external afg_test package, whose tests may
// import the generators that themselves import afg.
var CheckAgainstEncodingJSON = checkAgainstEncodingJSON
