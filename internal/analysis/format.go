package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// This file renders findings as SARIF 2.1.0 for CI code-scanning
// consumers (the lint job uploads the document as a build artifact).
// sarif_test.go pins the required fields.

// The SARIF 2.1.0 subset dsks-lint emits. Field names follow the OASIS
// schema; only the members CI consumers require are modeled.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	FullDescription  sarifMessage `json:"fullDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// sarifSchemaURI is the canonical 2.1.0 schema location.
const sarifSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// WriteSARIF renders findings as a SARIF 2.1.0 document with one run:
// every registered analyzer becomes a rule (so the rule table is stable
// whether or not an analyzer fired), and every finding a result
// referencing its rule by id and index. File paths are emitted relative
// to baseDir with SRCROOT as the uriBaseId, the convention code-scanning
// uploaders expect.
func WriteSARIF(w io.Writer, baseDir string, analyzers []*Analyzer, findings []Finding) error {
	ruleIndex := map[string]int{}
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		ruleIndex[a.Name] = len(rules)
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Name},
			FullDescription:  sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.Analyzer]
		if !ok {
			return fmt.Errorf("finding from unregistered analyzer %q", f.Analyzer)
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(relPath(baseDir, f.Pos.Filename)),
						URIBaseID: "SRCROOT",
					},
					Region: sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	doc := sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "dsks-lint", InformationURI: "docs/LINTING.md", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// relPath renders path relative to base when that produces a cleaner
// in-repository reference, else returns path unchanged.
func relPath(base, path string) string {
	if base == "" {
		return path
	}
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
