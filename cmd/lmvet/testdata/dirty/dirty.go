// Package dirty is an lmvet CLI test fixture with exactly one errclose
// finding, used to exercise exit code 1 and the SARIF report.
package dirty

// File stands in for a written file.
type File struct{}

// Close reports the write error a full disk surfaces at close.
func (File) Close() error { return nil }

// Save drops the error of Close, which errclose flags.
func Save(f File) {
	f.Close()
}
