package analysis

import (
	"go/token"
	"os"
	"strings"
)

// Inline suppression. A comment whose text begins exactly with
// "lmvet:ignore" (written as a //-comment with no space before the
// marker, like other machine directives) accepts one finding:
//
//	f.Close() //lmvet:ignore errclose read-only file, nothing to lose
//
// The directive names the analyzer being silenced and must carry a
// non-empty reason; a directive with a missing reason or an unknown
// analyzer name is itself reported as an error under the "lmvet"
// analyzer, so suppressions cannot rot silently. A trailing directive
// suppresses matching findings on its own line; a directive alone on its
// line suppresses the line that follows it.

// ignoreDirective is one parsed lmvet:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	file     string
	line     int // the source line the directive suppresses
}

// ignoreIndex resolves (file, line, analyzer) to a suppression.
type ignoreIndex struct {
	byFileLine map[string]map[int][]string // file -> line -> analyzer names
}

// ignoreMarker is the directive prefix, after the "//" comment opener.
const ignoreMarker = "lmvet:ignore"

// buildIgnoreIndex scans every comment of every package for
// lmvet:ignore directives. known names the valid analyzers; malformed
// directives come back as diagnostics under the "lmvet" analyzer.
func buildIgnoreIndex(pkgs []*Package, known map[string]bool) (*ignoreIndex, []Diagnostic) {
	idx := &ignoreIndex{byFileLine: make(map[string]map[int][]string)}
	var malformed []Diagnostic
	lineText := newLineReader()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+ignoreMarker)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 || !known[fields[0]] {
						malformed = append(malformed, Diagnostic{
							Analyzer: "lmvet",
							Pos:      pos,
							Message:  "malformed " + ignoreMarker + " directive; use //" + ignoreMarker + " <analyzer> <reason>",
						})
						continue
					}
					line := pos.Line
					if lineText.commentLeadsLine(pos) {
						line++ // standalone directive covers the next line
					}
					byLine := idx.byFileLine[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						idx.byFileLine[pos.Filename] = byLine
					}
					byLine[line] = append(byLine[line], fields[0])
				}
			}
		}
	}
	return idx, malformed
}

// suppresses reports whether d is accepted by a directive on its line.
func (idx *ignoreIndex) suppresses(d Diagnostic) bool {
	for _, name := range idx.byFileLine[d.Pos.Filename][d.Pos.Line] {
		if name == d.Analyzer {
			return true
		}
	}
	return false
}

// filter drops suppressed diagnostics.
func (idx *ignoreIndex) filter(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for _, d := range ds {
		if !idx.suppresses(d) {
			out = append(out, d)
		}
	}
	return out
}

// lineReader answers whether a comment is the first token on its source
// line, reading each file at most once. On read failure it reports false,
// which degrades to same-line suppression only — the conservative choice.
type lineReader struct {
	lines map[string][]string
}

func newLineReader() *lineReader {
	return &lineReader{lines: make(map[string][]string)}
}

func (r *lineReader) commentLeadsLine(pos token.Position) bool {
	lines, ok := r.lines[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err != nil {
			lines = nil
		} else {
			lines = strings.Split(string(data), "\n")
		}
		r.lines[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 <= len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}
