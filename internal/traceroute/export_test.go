package traceroute

// SampleResult hands the internal tests' sample result to the external
// test package, whose tests need the tracetest oracle (an internal test
// importing it would be an import cycle).
var SampleResult = sampleResult

// ScanAllWith is ScanAll with its decoder count and batch size given,
// and ScanAllBatch is the batch size ScanAll uses: tests run the
// parallel path at any width and with one line per batch.
var ScanAllWith = scanAll

const ScanAllBatch = scanAllBatch
