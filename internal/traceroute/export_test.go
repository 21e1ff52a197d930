package traceroute

// SampleResult hands the internal tests' sample result to the external
// test package, whose tests need the tracetest oracle (an internal test
// importing it would be an import cycle).
var SampleResult = sampleResult
