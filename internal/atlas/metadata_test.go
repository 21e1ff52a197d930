package atlas

import (
	"bytes"
	"strings"
	"testing"
)

func testInfos() []ProbeInfo {
	return []ProbeInfo{
		{ID: 1, ASNv4: 100, CountryCode: "JP", City: "Tokyo", Version: 3, Status: "Connected"},
		{ID: 2, ASNv4: 100, CountryCode: "JP", City: "Yokohama", Version: 2, Status: "Connected"},
		{ID: 3, ASNv4: 100, CountryCode: "JP", City: "Osaka", Version: 3, Status: "Connected"},
		{ID: 4, ASNv4: 100, CountryCode: "JP", City: "Tokyo", Version: 3, IsAnchor: true, Status: "Connected"},
		{ID: 5, ASNv4: 200, CountryCode: "US", Version: 1, Status: "Disconnected"},
		{ID: 6, ASNv4: 200, CountryCode: "US", Version: 3, Status: "Connected", Tags: []string{"home", "system-v3"}},
		{ID: 7, ASNv4: 300, CountryCode: "DE", Version: 3, Status: "Connected"},
	}
}

func mustRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(testInfos())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryBasics(t *testing.T) {
	r := mustRegistry(t)
	if r.Len() != 7 {
		t.Fatalf("len = %d", r.Len())
	}
	p, ok := r.ByID(4)
	if !ok || !p.IsAnchor {
		t.Fatalf("ByID(4) = %+v, %v", p, ok)
	}
	if _, ok := r.ByID(99); ok {
		t.Fatal("unknown id should miss")
	}
	all := r.All()
	if len(all) != 7 || all[0].ID != 1 || all[6].ID != 7 {
		t.Fatalf("All() = %v records", len(all))
	}
}

func TestRegistryDuplicates(t *testing.T) {
	if _, err := NewRegistry([]ProbeInfo{{ID: 1}, {ID: 1}}); err == nil {
		t.Fatal("duplicate ids must error")
	}
	if _, err := NewRegistry([]ProbeInfo{{}}); err == nil {
		t.Fatal("zero id must error")
	}
}

func TestSelectByASNExcludingAnchors(t *testing.T) {
	r := mustRegistry(t)
	// The paper's §2 selection: probes (not anchors) of one AS.
	ids := r.Select(SelectOptions{ASN: 100, ExcludeAnchors: true})
	want := []int{1, 2, 3}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestSelectGreaterTokyo(t *testing.T) {
	r := mustRegistry(t)
	// §4's selection: ASN + Greater Tokyo cities.
	ids := r.Select(SelectOptions{
		ASN:            100,
		Cities:         []string{"Tokyo", "Yokohama", "Chiba", "Saitama"},
		ExcludeAnchors: true,
	})
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v (Osaka must be excluded)", ids)
	}
}

func TestSelectVersionAndStatus(t *testing.T) {
	r := mustRegistry(t)
	ids := r.Select(SelectOptions{MinVersion: 3, ConnectedOnly: true})
	// v3+ connected: 1, 3, 4, 6, 7.
	if len(ids) != 5 {
		t.Fatalf("ids = %v", ids)
	}
	ids = r.Select(SelectOptions{CountryCode: "us", ConnectedOnly: true})
	if len(ids) != 1 || ids[0] != 6 {
		t.Fatalf("ids = %v (case-insensitive country, disconnected dropped)", ids)
	}
}

func TestASNsWithAtLeast(t *testing.T) {
	r := mustRegistry(t)
	// §3's monitoring bar: >=3 non-anchor probes.
	asns := r.ASNsWithAtLeast(3, SelectOptions{ExcludeAnchors: true})
	if len(asns) != 1 || asns[0] != 100 {
		t.Fatalf("asns = %v", asns)
	}
	asns = r.ASNsWithAtLeast(1, SelectOptions{})
	if len(asns) != 3 {
		t.Fatalf("asns = %v", asns)
	}
}

func TestHasTagAndConnected(t *testing.T) {
	r := mustRegistry(t)
	p, _ := r.ByID(6)
	if !p.HasTag("HOME") || p.HasTag("anchor") {
		t.Fatal("tag matching broken")
	}
	p5, _ := r.ByID(5)
	if p5.Connected() {
		t.Fatal("disconnected probe reported connected")
	}
	minimal := ProbeInfo{ID: 9}
	if !minimal.Connected() {
		t.Fatal("empty status should count as connected")
	}
}

func TestParseRegistryArray(t *testing.T) {
	raw := `[
	  {"id": 11, "asn_v4": 100, "country_code": "JP", "is_anchor": false, "version": 3, "status": "Connected"},
	  {"id": 12, "asn_v4": 100, "country_code": "JP", "is_anchor": true, "status": "Connected"}
	]`
	r, err := ParseRegistry(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	ids := r.Select(SelectOptions{ASN: 100, ExcludeAnchors: true})
	if len(ids) != 1 || ids[0] != 11 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestParseRegistryJSONL(t *testing.T) {
	raw := `{"id": 21, "asn_v4": 300, "country_code": "DE"}

{"id": 22, "asn_v4": 300, "country_code": "DE"}
`
	r, err := ParseRegistry(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestParseRegistryErrors(t *testing.T) {
	cases := []string{
		"",                    // empty
		"[{bad",               // broken array
		`{"id": "x"}`,         // wrong type
		`[{"id":1},{"id":1}]`, // duplicates
	}
	for _, c := range cases {
		if _, err := ParseRegistry(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: want error", c)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := mustRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteRegistry(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), r.Len())
	}
	p, ok := back.ByID(6)
	if !ok || !p.HasTag("home") || p.ASNv4 != 200 {
		t.Fatalf("record 6 = %+v", p)
	}
}
