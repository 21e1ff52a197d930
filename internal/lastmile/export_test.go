package lastmile

// MakeTrace exposes makeTrace to the package's external tests.
var MakeTrace = makeTrace
