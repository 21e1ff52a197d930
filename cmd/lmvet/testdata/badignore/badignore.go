// Package badignore is an lmvet CLI test fixture with a malformed
// suppression: the directive names no reason, so it suppresses nothing
// and is itself reported as an "lmvet" diagnostic.
package badignore

// File stands in for a written file.
type File struct{}

// Close reports the write error a full disk surfaces at close.
func (File) Close() error { return nil }

// Save drops the error of Close.
func Save(f File) {
	f.Close() //lmvet:ignore errclose
}
