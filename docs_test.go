package precinct

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// These tests read bench_figures.txt, EXPERIMENTS.md and DESIGN.md and
// run nothing: the committed figure file is what `make figures-check`
// holds to the code, and these hold the file to itself and the docs to
// the file and to Scenario.

// readFigureCells parses bench_figures.txt into figure id → x (the first
// field of a row: a number as the table prints it, or a row name) → the
// row's cells as printed, one per series.
func readFigureCells(t *testing.T) map[string]map[string][]string {
	t.Helper()
	data, err := os.ReadFile("bench_figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	figs := make(map[string]map[string][]string)
	for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
		lines := strings.Split(block, "\n")
		id, _, ok := strings.Cut(lines[0], ":")
		if !ok || len(lines) < 3 {
			t.Fatalf("bench_figures.txt: malformed block starting %q", lines[0])
		}
		rows := make(map[string][]string)
		for _, line := range lines[2:] {
			f := strings.Fields(line)
			rows[f[0]] = f[1:]
		}
		figs[id] = rows
	}
	return figs
}

// TestFigureIdentities: a cell of the design-choice rows that is the
// same scenario as a cell of another figure must print the same digits,
// or the two rows do not build what their labels say.
func TestFigureIdentities(t *testing.T) {
	figs := readFigureCells(t)
	cell := func(id, x string, col int) string {
		if row := figs[id][x]; col < len(row) {
			return row[col]
		}
		t.Fatalf("bench_figures.txt has no cell %s at %s, column %d", id, x, col)
		return ""
	}
	for _, same := range []struct {
		id, x    string
		col      int
		asID, as string
		asCol    int
	}{
		// Beacon 0 s is perfect location knowledge: the ext row at 80 nodes.
		{"beacon-energy", "0", 0, "ext", "80", 0},
		{"beacon-energy", "0", 1, "ext", "80", 1},
		{"beacon-energy", "0", 2, "ext", "80", 2},
		// α 0.5 and uniform update targets are Figure 7's adaptive column.
		{"ttr-fhr", "0.5", 0, "fig7", "1", 2},
		{"ttr-fhr", "0.5", 1, "fig7", "5", 2},
		// The default scenario: GD-LD at the 1.5 % cache, no churn, one
		// replica region, perfect location knowledge.
		{"ablate-latency", "GD-LD", 0, "fig4", "1.5", 0},
		{"ablate-bhr", "GD-LD", 0, "fig5", "1.5", 0},
		{"beacon-latency", "0", 0, "fig4", "1.5", 0},
		{"replicas-latency", "0", 1, "fig4", "1.5", 0},
		{"replicas-success", "0", 1, "beacon-success", "0", 0},
	} {
		if a, b := cell(same.id, same.x, same.col), cell(same.asID, same.as, same.asCol); a != b {
			t.Errorf("%s at %s, column %d, reads %s; %s at %s, column %d, reads %s",
				same.id, same.x, same.col, a, same.asID, same.as, same.asCol, b)
		}
	}
}

var figTag = regexp.MustCompile(`^<!-- fig:([\w-]+) -->$`)

// TestDocumentedFigures: every EXPERIMENTS.md table tagged
// `<!-- fig:<figure id> -->` quotes that figure of bench_figures.txt.
// A row's first cell starts with the row's x as the figure prints it
// ("5" or "5 s", "GD-LD"); each further cell is one series, in the
// figure's order, and must equal the committed value rounded to the
// decimals the doc prints.
func TestDocumentedFigures(t *testing.T) {
	figs := readFigureCells(t)
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	tables := 0
	for i := 0; i < len(lines); i++ {
		m := figTag.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		tables++
		id := m[1]
		fig, ok := figs[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: tag names %s, which bench_figures.txt does not have", i+1, id)
			continue
		}
		// The header and separator lines follow the tag; rows run to
		// the first line that is not a table row.
		i += 3
		rows := 0
		for ; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			rows++
			cells := strings.Split(strings.Trim(lines[i], "| "), "|")
			x := strings.Fields(cells[0])
			if len(x) == 0 || fig[x[0]] == nil {
				t.Errorf("EXPERIMENTS.md:%d: %s has no row %q", i+1, id, cells[0])
				continue
			}
			want := fig[x[0]]
			if len(cells)-1 != len(want) {
				t.Errorf("EXPERIMENTS.md:%d: %d values for %s's %d series", i+1, len(cells)-1, id, len(want))
				continue
			}
			for c, doc := range cells[1:] {
				doc = strings.TrimSpace(doc)
				decimals := 0
				if dot := strings.IndexByte(doc, '.'); dot >= 0 {
					decimals = len(doc) - dot - 1
				}
				v, err := strconv.ParseFloat(want[c], 64)
				if err != nil {
					t.Fatalf("bench_figures.txt: %s at %s: %v", id, x[0], err)
				}
				if got := strconv.FormatFloat(v, 'f', decimals, 64); got != doc {
					t.Errorf("EXPERIMENTS.md:%d: %s at %s, series %d, prints %q; bench_figures.txt reads %s, %s at that precision",
						i+1, id, x[0], c+1, doc, want[c], got)
				}
			}
		}
		if rows == 0 {
			t.Errorf("EXPERIMENTS.md: the table tagged %s has no rows", id)
		}
	}
	if tables == 0 {
		t.Error("EXPERIMENTS.md has no table tagged <!-- fig:<id> -->")
	}
}

// TestScenarioFieldTable holds DESIGN.md section 17's "Field → row" table
// to Scenario: every field is named in the table's first column exactly
// once, and the column names nothing else.
func TestScenarioFieldTable(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "**Field → row.**")
	_, table, ok := strings.Cut(table, "| Field | Read by |\n|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md has no Field → row table")
	}
	listed := map[string]int{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		for i, f := range strings.Split(strings.Split(line, "|")[1], "`") {
			if i%2 == 1 { // between a pair of backticks
				listed[f]++
			}
		}
	}
	fields := reflect.TypeOf(Scenario{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		if listed[name] != 1 {
			t.Errorf("the Field → row table names Scenario.%s %d times, want once", name, listed[name])
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("the Field → row table names %s, which is not a Scenario field", name)
	}
}
