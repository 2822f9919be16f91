package bcnphase_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKeep lists the exported declarations under internal/ that no
// product path calls but that stay on purpose, each with its reason.
// Keys are package.Name or package.Type.Method. DESIGN.md's "API
// census" paragraph gives the rules a row must follow.
var apiKeep = map[string]string{
	// Paper claims, waiting for the claims ledger to give them a caller.
	"core.Proposition2Satisfied":  "paper claim: Proposition 2's Case 1 strong-stability check",
	"core.AnalyticRho":            "paper claim: the closed-form contraction ratio of one Case 1 round",
	"core.RoundDurations":         "paper claim: the constant T_i, T_d of Fig. 6",
	"phaseplane.Linear2.Classify": "paper claim: singular-point classification by Lyapunov's first method (§IV-A)",

	// Test references: code a test holds a product path against.
	"ode.BogackiShampineTableau": "test reference: TestQuickPairsAgree holds the product Dormand–Prince pair to it",
	"ode.AdaptiveIntegrate":      "test reference: integrates any tableau for TestQuickPairsAgree",
	"core.Params.RawRHS":         "test reference: fluid_test holds the shifted model to the paper's raw eqs. (4) and (7)",
	"core.Params.ShiftedToRaw":   "test reference: maps states between the raw and shifted models in fluid_test",
	"core.Params.RawToShifted":   "test reference: maps states between the raw and shifted models in fluid_test",
	"cluster.VerifyShardResult":  "test reference: chaosnet tests verify rewritten shards from outside the package",

	// Test fixtures and probes: read by tests that assert something else.
	"invariant.Checker.Check":         "fixture: the boxed-argument form of Failf that invariant tests drive",
	"experiments.Report.Number":       "probe: experiment tests read headline numbers by name",
	"chaosnet.Proxy.Arrivals":         "probe: the herd test measures the retry wave's spread",
	"netsim.Sim.Pending":              "probe: engine tests count queued events",
	"netsim.Network.Sources":          "probe: network and fault tests inspect per-source state",
	"core.Arc.Eigen":                  "probe: arc tests check the regime's eigenvalues",
	"canonjson.Reader.Offset":         "probe: rowcodec_test names the byte where an artifact leaves the canonical path",
	"bcn.Message.Positive":            "probe: bcn tests read the feedback sign",
	"bcn.ReactionPoint.Associated":    "probe: bcn tests read the congestion point a source is bound to",
	"fera.CongestionPoint.Advertised": "probe: fera tests read the advertised fair share",
	"fera.CongestionPoint.OverloadZ":  "probe: fera tests read the measured overload ratio",
	"fera.RateRegulator.Updates":      "probe: fera tests count applied advertisements",

	// Interface methods and the wire format.
	"qos.waiterHeap.Less":       "interface: heap.Interface",
	"qos.waiterHeap.Swap":       "interface: heap.Interface",
	"bcn.Message.MarshalBinary": "wire format: encoding.BinaryMarshaler in the Fig. 2 layout, fuzzed",
}

// callerDirs are the top-level directories whose code is a product
// path: every declaration in them is a root of the census.
var callerDirs = map[string]bool{"cmd": true, "examples": true, "scripts": true, "perfbench": true}

// apiDecl is one top-level declaration of a non-test Go file.
type apiDecl struct {
	key    string   // package.Name or package.Type.Method
	name   string   // the identifier other code refers to it by
	pos    string   // file:line
	root   bool     // in a caller directory, an init func or a blank var
	census bool     // an exported func, method or type under internal/
	uses   []string // identifiers its own syntax mentions
}

// TestExportedAPICensus fails on every exported function, method or type
// under internal/ that no product path reaches and that has no apiKeep
// row, and on every apiKeep row that names no such declaration. It
// parses the module's non-test files and matches identifiers by name,
// so it over-counts uses (a struct field or a local of the same name
// keeps a declaration alive) but never under-counts them. Reachability
// runs from the caller directories, init funcs and blank vars to a
// fixpoint, so a declaration used only from unreached declarations is
// unreached too; kept rows count as roots, so what they call stays.
func TestExportedAPICensus(t *testing.T) {
	decls := parseAPIDecls(t, ".")
	if len(decls) == 0 {
		t.Fatal("parsed no declarations")
	}
	unreached := func(kept map[string]string) map[string]*apiDecl {
		byName := map[string][]*apiDecl{}
		for _, d := range decls {
			byName[d.name] = append(byName[d.name], d)
		}
		live := map[*apiDecl]bool{}
		var work []*apiDecl
		for _, d := range decls {
			if _, ok := kept[d.key]; d.root || ok {
				live[d] = true
				work = append(work, d)
			}
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, name := range d.uses {
				for _, u := range byName[name] {
					if !live[u] {
						live[u] = true
						work = append(work, u)
					}
				}
			}
		}
		out := map[string]*apiDecl{}
		for _, d := range decls {
			if d.census && !live[d] {
				out[d.key] = d
			}
		}
		return out
	}

	dead := unreached(nil)
	for key := range apiKeep {
		if dead[key] == nil {
			t.Errorf("apiKeep row %s names no unreferenced exported declaration: delete the row", key)
		}
	}
	var report []string
	for key, d := range unreached(apiKeep) {
		if _, ok := apiKeep[key]; !ok {
			report = append(report, d.pos+": "+key)
		}
	}
	sort.Strings(report)
	for _, r := range report {
		t.Errorf("exported declaration with no product caller: %s (delete it, or add an apiKeep row with its reason)", r)
	}
}

// parseAPIDecls parses every non-test Go file under root, the perfbench
// module included, into its top-level declarations.
func parseAPIDecls(t *testing.T, root string) []*apiDecl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []*apiDecl
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || e.Name() == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		top, _, _ := strings.Cut(slash, "/")
		caller := callerDirs[top]
		internal := top == "internal"
		pkg := f.Name.Name
		add := func(key, name string, at token.Pos, root, census bool, body ast.Node, self *ast.Ident) {
			d := &apiDecl{key: pkg + "." + key, name: name, pos: fset.Position(at).String(), root: caller || root, census: internal && census}
			ast.Inspect(body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != self {
					d.uses = append(d.uses, id.Name)
				}
				return true
			})
			decls = append(decls, d)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := decl.Name.Name
				if decl.Recv != nil {
					key = recvTypeName(decl.Recv.List[0].Type) + "." + key
				}
				add(key, decl.Name.Name, decl.Pos(), decl.Recv == nil && decl.Name.Name == "init", decl.Name.IsExported(), decl, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name.Name, spec.Pos(), false, spec.Name.IsExported(), spec, spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id.Name, id.Pos(), id.Name == "_", false, spec, id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvTypeName strips pointers and type parameters off a receiver type.
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
