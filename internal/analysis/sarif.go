package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 output, the interchange format CI annotation surfaces
// (GitHub code scanning, VS Code SARIF viewers) consume. The document is
// the minimal valid subset: one run, the analyzer suite as the rule
// table, one result per diagnostic with a physical location relative to
// the module root (%SRCROOT%).

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool                sarifTool                `json:"tool"`
	OriginalURIBaseIDs  map[string]sarifArtifact `json:"originalUriBaseIds,omitempty"`
	Results             []sarifResult            `json:"results"`
	ColumnKind          string                   `json:"columnKind"`
	DefaultSourceLocale string                   `json:"defaultSourceLanguage,omitempty"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF encodes the diagnostics as a SARIF 2.1.0 log. moduleDir
// anchors %SRCROOT%-relative artifact URIs.
func WriteSARIF(w io.Writer, diags []Diagnostic, moduleDir string) error {
	ruleIndex := make(map[string]int)
	var rules []sarifRule
	addRule := func(id, doc string) {
		if _, ok := ruleIndex[id]; ok {
			return
		}
		ruleIndex[id] = len(rules)
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifMessage{Text: doc}})
	}
	for _, a := range All() {
		addRule(a.Name, a.Doc)
	}
	// Driver-level findings (malformed lmvet:ignore directives) carry
	// analyzer names outside the suite; give them rules too.
	for _, d := range diags {
		addRule(d.Analyzer, "lmvet driver diagnostic")
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifact{
						URI:       relPath(moduleDir, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "lmvet",
				InformationURI: "https://github.com/last-mile-congestion/lastmile",
				Rules:          rules,
			}},
			OriginalURIBaseIDs: map[string]sarifArtifact{
				"%SRCROOT%": {URI: "file://" + filepath.ToSlash(moduleDir) + "/"},
			},
			Results:    results,
			ColumnKind: "utf16CodeUnits",
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders file relative to moduleDir with forward slashes, or
// the file as given when it lies outside the module.
func relPath(moduleDir, file string) string {
	if moduleDir != "" {
		if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}
