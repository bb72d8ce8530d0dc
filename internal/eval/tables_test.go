package eval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper-tables.txt from this run")

// synthesisTime is the one wall-clock cell in the output.
var synthesisTime = regexp.MustCompile(`(synthesized full EC2 spec in )[^;]+;`)

// TestPaperTablesGolden holds every section lce-bench prints, in
// order, to the recorded bytes; only the synthesis wall time is
// masked. Regenerate only for an intended change in a table:
//
//	go test ./internal/eval/ -run TestPaperTablesGolden -update
func TestPaperTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTables(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got := synthesisTime.ReplaceAll(buf.Bytes(), []byte("${1}<elapsed>;"))
	if bytes.Equal(got, buf.Bytes()) {
		t.Fatal("output has no synthesis-time cell to mask")
	}
	path := filepath.Join("testdata", "paper-tables.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("paper tables differ from %s:\n--- got ---\n%s", path, got)
	}
}

// TestWriteTablesSelects: a selection prints only its sections, in
// print order regardless of how it was asked for.
func TestWriteTablesSelects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTables(&buf, map[string]bool{"graphs": true, "table1": true}); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	writeTable1(&want)
	writeGraphs(&want)
	if buf.String() != want.String() {
		t.Errorf("selected output:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}
