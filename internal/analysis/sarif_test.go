package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"dsks/internal/analysis"
)

func sampleFindings() []analysis.Finding {
	return []analysis.Finding{
		{
			Analyzer: "lockio",
			Pos:      token.Position{Filename: "/repo/dsks.go", Line: 42, Column: 7},
			Message:  "pool.Get while db.mu is held",
		},
		{
			Analyzer: "commitorder",
			Pos:      token.Position{Filename: "/repo/internal/wal/wal.go", Line: 9, Column: 2},
			Message:  "pool.Publish after roots.Store",
		},
	}
}

func sampleAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		{Name: "lockio", Doc: "no page I/O under a latch"},
		{Name: "commitorder", Doc: "commit ops keep their order"},
		{Name: "detrand", Doc: "seeded randomness only"},
	}
}

// TestWriteSARIFShape pins the SARIF 2.1.0 members CI consumers rely
// on: schema/version at the top, a rule per registered analyzer (fired
// or not), and results referencing rules by id and index with
// SRCROOT-relative locations.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, "/repo", sampleAnalyzers(), sampleFindings()); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name           string `json:"name"`
					InformationURI string `json:"informationUri"`
					Rules          []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						FullDescription struct {
							Text string `json:"text"`
						} `json:"fullDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if !strings.Contains(doc.Schema, "sarif-schema-2.1.0") {
		t.Errorf("$schema = %q, want the 2.1.0 schema URI", doc.Schema)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "dsks-lint" {
		t.Errorf("driver name = %q, want dsks-lint", run.Tool.Driver.Name)
	}
	if run.Tool.Driver.InformationURI == "" {
		t.Error("driver informationUri is empty")
	}
	// Every registered analyzer is a rule, fired or not.
	if len(run.Tool.Driver.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(run.Tool.Driver.Rules))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" || r.FullDescription.Text == "" {
			t.Errorf("rule %+v missing id or descriptions", r)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "lockio" {
		t.Errorf("ruleId = %q, want lockio", first.RuleID)
	}
	if got := run.Tool.Driver.Rules[first.RuleIndex].ID; got != first.RuleID {
		t.Errorf("ruleIndex %d points at rule %q, want %q", first.RuleIndex, got, first.RuleID)
	}
	if first.Level != "error" {
		t.Errorf("level = %q, want error", first.Level)
	}
	if first.Message.Text == "" {
		t.Error("result message is empty")
	}
	if len(first.Locations) != 1 {
		t.Fatalf("got %d locations, want 1", len(first.Locations))
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "dsks.go" {
		t.Errorf("uri = %q, want repo-relative dsks.go", loc.ArtifactLocation.URI)
	}
	if loc.ArtifactLocation.URIBaseID != "SRCROOT" {
		t.Errorf("uriBaseId = %q, want SRCROOT", loc.ArtifactLocation.URIBaseID)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %+v, want 42:7", loc.Region)
	}
}

// TestWriteSARIFUnknownAnalyzer ensures a finding from an analyzer
// missing from the rule table is an error, not a dangling ruleIndex.
func TestWriteSARIFUnknownAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	err := analysis.WriteSARIF(&buf, "", sampleAnalyzers()[:1], sampleFindings())
	if err == nil {
		t.Fatal("want error for finding from unregistered analyzer")
	}
}
