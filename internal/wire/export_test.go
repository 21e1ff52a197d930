package wire

// ScanAllWith is ScanAll with its decoder count and batch size given,
// and ScanAllBatch is the batch size ScanAll uses: tests run the
// parallel path at any width and with one frame per batch.
var ScanAllWith = scanAll

const ScanAllBatch = scanAllBatch
