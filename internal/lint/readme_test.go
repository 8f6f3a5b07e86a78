package lint

import (
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestReadmeListsEveryPass keeps the two hand-written pass catalogues —
// README's pass table and the cmd/semsimlint package doc — naming
// exactly the registered analyzers, so adding or deleting a pass
// without updating them fails here.
func TestReadmeListsEveryPass(t *testing.T) {
	var want []string
	for _, a := range All() {
		want = append(want, a.Name)
	}
	sort.Strings(want)

	blob, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	in := false
	for _, line := range strings.Split(string(blob), "\n") {
		switch {
		case strings.HasPrefix(line, "| pass | contract |"):
			in = true
		case in && strings.HasPrefix(line, "| `"):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
			table = append(table, name)
		case in && !strings.HasPrefix(line, "|"):
			in = false
		}
	}
	requireSameNames(t, "README pass table", table, want)

	f, err := parser.ParseFile(token.NewFileSet(), "../../cmd/semsimlint/main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	_, list, ok := strings.Cut(doc, "internal/lint passes (")
	list, _, ok2 := strings.Cut(list, ")")
	if !ok || !ok2 {
		t.Fatal("cmd/semsimlint package doc has no \"internal/lint passes (...)\" list")
	}
	var named []string
	for _, n := range strings.Split(list, ",") {
		named = append(named, strings.TrimSpace(n))
	}
	requireSameNames(t, "cmd/semsimlint package doc", named, want)
}

func requireSameNames(t *testing.T, where string, got, want []string) {
	t.Helper()
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	if strings.Join(sorted, ",") != strings.Join(want, ",") {
		t.Errorf("%s names %v, want exactly lint.All(): %v", where, sorted, want)
	}
}
