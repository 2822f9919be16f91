package bcnphase_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// apiKeep lists the declarations under internal/ that no product path
// reaches but that stay on purpose, each with its reason. Keys are
// package.Name, package.Type.Method or package.Type.Field. A reason
// starts with its class: "paper claim:", "test reference:", "fixture:",
// "probe:", "interface:" or "wire:". DESIGN.md's "Declaration census"
// paragraph gives the rules a row must follow.
var apiKeep = map[string]string{
	// Paper claims, waiting for the claims ledger to give them a caller.
	"core.Proposition2Satisfied":  "paper claim: Proposition 2's Case 1 strong-stability check",
	"core.AnalyticRho":            "paper claim: the closed-form contraction ratio of one Case 1 round",
	"core.RoundDurations":         "paper claim: the constant T_i, T_d of Fig. 6",
	"phaseplane.Linear2.Classify": "paper claim: singular-point classification by Lyapunov's first method (§IV-A)",

	// Test references: code a test holds a product path against.
	"ode.BogackiShampineTableau":           "test reference: TestQuickPairsAgree holds the product Dormand–Prince pair to it",
	"ode.AdaptiveIntegrate":                "test reference: integrates any tableau for TestQuickPairsAgree",
	"core.Params.RawRHS":                   "test reference: fluid_test holds the shifted model to the paper's raw eqs. (4) and (7)",
	"core.Params.ShiftedToRaw":             "test reference: maps states between the raw and shifted models in fluid_test",
	"core.Params.RawToShifted":             "test reference: maps states between the raw and shifted models in fluid_test",
	"cluster.VerifyShardResult":            "test reference: chaosnet tests verify rewritten shards from outside the package",
	"qos.ControllerConfig.VectorField":     "test reference: the admission loop's (q, R) dynamics that stability_test certifies spiral-stable",
	"phaseplane.ReturnMap.Stability":       "test reference: stability_test reads the admission loop's Floquet multiplier from it",
	"analytic.Options.Mode":                "test reference: TestSolveGolden's no-short-circuit case pins the RK45 oracle with ModeOff",
	"analytic.Options.DisableShortCircuit": "test reference: TestSolveGolden's no-short-circuit case pins both engines with it",

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
	"netsim.Sim.Step":                 "fixture: TestQuickEventOrder single-steps the engine against a reference model",

	// Test hooks: fields only tests set, to make a run reproducible or
	// to inject the fault under test.
	"cluster.Config.auditFor":       "fixture: audit tests fix which shards are audited",
	"cluster.HAConfig.Seed":         "fixture: HA tests fix election jitter",
	"cluster.HAConfig.OnShardDone":  "fixture: the split-brain test checks the fencing order of merges",
	"chaosnet.Config.StallProb":     "fixture: chaos tests stall requests past their lease",
	"chaosnet.Config.Stall":         "fixture: how long a stalled request waits",
	"chaosnet.Config.ResetProb":     "fixture: chaos tests sever connections before forwarding",
	"chaosnet.Config.TruncateProb":  "fixture: chaos tests cut response bodies short",
	"chaosnet.Config.FlipProb":      "fixture: chaos tests flip a bit of a response body",
	"chaosnet.Config.ByzantineProb": "fixture: chaos and audit tests rewrite rows and re-sign the shard",
	"chaosnet.Config.ShedFirst":     "fixture: the herd test sheds the first requests with one Retry-After",
	"chaosnet.Config.DripBytes":     "fixture: the drip test holds a response open in small writes",
	"chaosnet.Config.DripInterval":  "fixture: the pause between drip writes",

	// Wire format: fields encoding/json fills that no Go code reads.
	"cluster.WorkerStatus.ActiveJobs":  "wire: a worker's /statusz active_jobs, type-checked on decode",
	"cluster.WorkerStatus.Utilization": "wire: a worker's /statusz utilization, type-checked on decode",
}

// keepClasses are the reason classes an apiKeep row may give.
var keepClasses = []string{"paper claim:", "test reference:", "fixture:", "probe:", "interface:", "wire:"}

// callerDirs are the top-level directories whose code is a product
// path: every declaration in them is a root of the census. One of them
// may be a module of its own (perfbench/); it is type-checked as a
// caller of the module it imports.
var callerDirs = map[string]bool{"cmd": true, "examples": true, "scripts": true, "perfbench": true}

// TestDeclarationCensus fails on every func, method, type, const,
// package-level var and struct field under internal/ that no product
// path reaches, and on every reached field that no non-test file sets,
// unless it has an apiKeep row; and on every apiKeep row that names no
// such declaration or gives no reason class.
func TestDeclarationCensus(t *testing.T) {
	c, err := loadDeclCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	dead, unset := c.unreached(nil), c.unset(nil)
	keys := make([]string, 0, len(apiKeep))
	for key := range apiKeep {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if dead[key] == nil && unset[key] == nil {
			t.Errorf("apiKeep row %s names no unreached declaration and no unset field: delete the row", key)
		}
		if !hasKeepClass(apiKeep[key]) {
			t.Errorf("apiKeep row %s: reason %q starts with none of %q", key, apiKeep[key], keepClasses)
		}
	}
	if lines := report(c.unreached(apiKeep)); len(lines) > 0 {
		t.Errorf("declarations no product path reaches (delete each, or add an apiKeep row with its reason):\n\t%s",
			strings.Join(lines, "\n\t"))
	}
	if lines := reportUnset(c.unset(apiKeep)); len(lines) > 0 {
		t.Errorf("fields no non-test file sets; the reads under each are branches that never run (delete the field and them, or add an apiKeep row with its reason):\n\t%s",
			strings.Join(lines, "\n\t"))
	}
}

// TestFixtureModuleCensus runs the census over a small module built to
// hold one case of each rule: an unused unexported func, a Stringer on
// a live type, a field set only in a keyed literal, a json field nothing
// reads, generic code reached only through instances, two packages that
// share the names Path, Switched and Trace, and the write rule's cases
// in internal/lib/writes.go.
func TestFixtureModuleCensus(t *testing.T) {
	c, err := loadDeclCensus(filepath.Join("testdata", "census"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"dead.Path", "dead.Path.Switched", "dead.Trace",
		"lib.Options.Spare", "lib.Status.Seen", "lib.plantedDead",
	}
	if got := sortedKeys(c.unreached(nil)); !slices.Equal(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	wire := map[string]string{"lib.Status.Seen": "wire: filled by encoding/json and never read"}
	want = []string{"dead.Path", "dead.Path.Switched", "dead.Trace", "lib.Options.Spare", "lib.plantedDead"}
	if got := sortedKeys(c.unreached(wire)); !slices.Equal(got, want) {
		t.Errorf("with a wire row: unreached = %q, want %q", got, want)
	}
	// The report names a dead type, not each of its fields.
	want = []string{
		"internal/dead/dead.go:10:6: dead.Trace",
		"internal/dead/dead.go:5:6: dead.Path",
		"internal/lib/lib.go:17:2: lib.Options.Spare",
		"internal/lib/lib.go:26:2: lib.Status.Seen",
		"internal/lib/lib.go:7:6: lib.plantedDead",
	}
	if got := report(c.unreached(nil)); !slices.Equal(got, want) {
		t.Errorf("report = %q, want %q", got, want)
	}
	// A field is set by a keyed or unkeyed literal, an assignment, op=,
	// ++, range, &x.f, or a pointer method on a value field (o.mu.Lock());
	// a write through o.In.Depth sets In and Depth. encoding/json sets
	// Report.Items and Item.Weight. What is left is read and never set
	// by a non-test file: o.m.Inc() does not set m.
	want = []string{
		"internal/lib/writes.go:25:2: lib.Outer.m\n\t\tread at internal/lib/writes.go:35",
		"internal/lib/writes.go:26:2: lib.Outer.Unread\n\t\tread at internal/lib/writes.go:36",
		"internal/lib/writes.go:27:2: lib.Outer.Tested\n\t\tread at internal/lib/writes.go:36",
	}
	if got := reportUnset(c.unset(nil)); !slices.Equal(got, want) {
		t.Errorf("unset report = %q, want %q", got, want)
	}
	hooks := map[string]string{"lib.Outer.Tested": "fixture: set by writes_test.go"}
	want = []string{"lib.Outer.Unread", "lib.Outer.m"}
	if got := sortedKeys(c.unset(hooks)); !slices.Equal(got, want) {
		t.Errorf("with a fixture row: unset = %q, want %q", got, want)
	}
}

// censusDecl is one declaration the census tracks: a top-level func,
// method, type, const or var, or a field of a package-level struct type.
type censusDecl struct {
	key    string        // package.Name, package.Type.Method or package.Type.Field
	pos    string        // file:line:col, relative to the module root
	root   bool          // in a caller directory, init or main, or a blank var
	census bool          // declared under internal/, so it must be reached
	member *censusDecl   // the type a method or field belongs to
	iface  bool          // a method that implements a method of an interface type
	uses   []*censusDecl // the declarations its syntax resolves to
	field  bool          // a struct field
	set    bool          // a non-test file writes the field, or encoding/json fills it
	reads  []readSite    // each read of the field
}

// readSite is the file and line of one read of a field.
type readSite struct {
	file string
	line int
}

// declCensus is a module's declarations and the edges between them.
type declCensus struct {
	decls []*censusDecl
}

// unreached returns the census declarations that no root reaches,
// keep's rows counting as roots, keyed by censusDecl.key.
func (c *declCensus) unreached(keep map[string]string) map[string]*censusDecl {
	live := c.reach(keep)
	out := map[string]*censusDecl{}
	for _, d := range c.decls {
		if d.census && !live[d] {
			out[d.key] = d
		}
	}
	return out
}

// unset returns the census fields that a root reaches, that nothing
// sets and that have no row in keep, keyed by censusDecl.key. Every read
// of such a field sees its zero value. A field only kept code reads
// answers to that code's row.
func (c *declCensus) unset(keep map[string]string) map[string]*censusDecl {
	live := c.reach(nil)
	out := map[string]*censusDecl{}
	for _, d := range c.decls {
		if _, ok := keep[d.key]; d.census && d.field && !d.set && live[d] && !ok {
			out[d.key] = d
		}
	}
	return out
}

// reach returns the declarations some root reaches, keep's rows
// counting as roots. A use is a resolved identifier, so a name shared
// by two declarations keeps only the one it denotes. A method whose
// type is reached is reached too when it implements a method of an
// interface type.
func (c *declCensus) reach(keep map[string]string) map[*censusDecl]bool {
	live := map[*censusDecl]bool{}
	var work []*censusDecl
	mark := func(d *censusDecl) {
		if !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range c.decls {
		if _, ok := keep[d.key]; d.root || ok {
			mark(d)
		}
	}
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range d.uses {
				mark(u)
			}
		}
		for _, d := range c.decls {
			if d.iface && live[d.member] {
				mark(d)
			}
		}
	}
	return live
}

// report lists unreached declarations as "pos: key" lines, sorted. The
// methods and fields of an unreached type go with it and are not listed.
func report(dead map[string]*censusDecl) []string {
	var out []string
	for _, d := range dead {
		if d.member == nil || dead[d.member.key] != d.member {
			out = append(out, d.pos+": "+d.key)
		}
	}
	slices.Sort(out)
	return out
}

// reportUnset lists unset fields as "pos: key" lines, sorted, each
// followed by the file:line of every read, the branches that never run.
func reportUnset(unset map[string]*censusDecl) []string {
	var out []string
	for _, d := range unset {
		line := d.pos + ": " + d.key
		reads := slices.Clone(d.reads)
		slices.SortFunc(reads, func(a, b readSite) int {
			return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.line, b.line))
		})
		for _, r := range slices.Compact(reads) {
			line += fmt.Sprintf("\n\t\tread at %s:%d", r.file, r.line)
		}
		out = append(out, line)
	}
	slices.Sort(out)
	return out
}

// listedPackage is the part of `go list -json` output the census reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists the packages of the module in dir and all their
// dependencies, dependencies first, with the export data of each.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// checkedPackage is one module package, type-checked from source.
type checkedPackage struct {
	files []*ast.File
	info  *types.Info
}

// loadDeclCensus type-checks the module at root from its non-test
// files, and any module in a caller directory beside it, and builds the
// census over every declaration they hold. Standard-library packages
// are read from the export data `go list -export` names.
func loadDeclCensus(root string) (*declCensus, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	listing, err := goList(root)
	if err != nil {
		return nil, err
	}
	for dir := range callerDirs {
		if _, err := os.Stat(filepath.Join(root, dir, "go.mod")); err == nil {
			more, err := goList(filepath.Join(root, dir))
			if err != nil {
				return nil, err
			}
			listing = append(listing, more...)
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listing {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	var pkgs []*checkedPackage
	var ifaces []*types.Interface
	seen := map[string]bool{}
	for _, p := range listing {
		if seen[p.ImportPath] {
			continue // listed by both modules
		}
		seen[p.ImportPath] = true
		if p.Standard {
			pkg, err := std.Import(p.ImportPath)
			if err != nil {
				return nil, err
			}
			ifaces = appendScopeInterfaces(ifaces, pkg.Scope())
			continue
		}
		cp := &checkedPackage{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, cp)
		ifaces = appendScopeInterfaces(ifaces, pkg.Scope())
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	b := &censusBuilder{fset: fset, root: root, byObj: map[types.Object]*censusDecl{}, fields: map[*ast.Field][]*censusDecl{}, writes: map[*ast.Ident]bool{}}
	for _, cp := range pkgs {
		for _, f := range cp.files {
			b.declareValues(f, cp.info)
		}
	}
	for _, cp := range pkgs {
		for _, f := range cp.files {
			b.declareFuncs(f, cp.info)
		}
	}
	for _, o := range b.owned {
		ast.Walk(o.w, o.n)
	}
	// encoding/json fills the fields of a struct type with json tags,
	// and of every struct type it reaches through them.
	filled := map[*types.Struct]bool{}
	for _, cp := range pkgs {
		for _, tv := range cp.info.Types {
			if st, ok := tv.Type.Underlying().(*types.Struct); ok && hasJSONTag(st) {
				b.fillJSON(st, filled)
			}
		}
	}
	keys := map[string]string{}
	for _, d := range b.c.decls {
		if d.census {
			if pos, dup := keys[d.key]; dup {
				return nil, fmt.Errorf("census key %s names both %s and %s", d.key, pos, d.pos)
			}
			keys[d.key] = d.pos
		}
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for obj, d := range b.byObj {
		if fn, ok := obj.(*types.Func); ok && d.member != nil {
			d.iface = implementsAny(fn, byMethod[fn.Name()])
		}
	}
	return &b.c, nil
}

// hasJSONTag reports whether a field of st has a json tag.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// fillJSON marks the fields of st set, and those of every struct type
// its fields hold, through pointers, slices, arrays and map values.
func (b *censusBuilder) fillJSON(st *types.Struct, filled map[*types.Struct]bool) {
	if filled[st] {
		return
	}
	filled[st] = true
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if d := b.decl(f); d != nil {
			d.set = true
		}
		t := f.Type()
		for {
			switch u := t.Underlying().(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			case *types.Map:
				t = u.Elem()
				continue
			case *types.Struct:
				b.fillJSON(u, filled)
			}
			break
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// appendScopeInterfaces appends the interface types a package declares.
func appendScopeInterfaces(ifaces []*types.Interface, scope *types.Scope) []*types.Interface {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces
}

// implementsAny reports whether fn's receiver type, or a pointer to it,
// implements one of ifaces, each of which has a method of fn's name. A
// generic receiver or interface is matched by the method name alone.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := recv.(*types.Named)
	for _, it := range ifaces {
		if named == nil || named.TypeParams().Len() > 0 || !it.IsMethodSet() {
			return true
		}
		if types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// censusBuilder makes a censusDecl for each declaration of the checked
// files and records which syntax each one owns.
type censusBuilder struct {
	c      declCensus
	fset   *token.FileSet
	root   string
	byObj  map[types.Object]*censusDecl
	fields map[*ast.Field][]*censusDecl // fields of package-level struct types
	writes map[*ast.Ident]bool          // field selectors that set the field
	owned  []ownedSyntax
}

// ownedSyntax is syntax whose identifiers are uses of the walker's
// declarations.
type ownedSyntax struct {
	w *censusWalker
	n ast.Node
}

func (b *censusBuilder) add(obj types.Object, key string, root bool, member *censusDecl) *censusDecl {
	pos := b.fset.Position(obj.Pos())
	rel, _ := filepath.Rel(b.root, pos.Filename)
	rel = filepath.ToSlash(rel)
	top, _, _ := strings.Cut(rel, "/")
	d := &censusDecl{
		key:    obj.Pkg().Name() + "." + key,
		pos:    fmt.Sprintf("%s:%d:%d", rel, pos.Line, pos.Column),
		root:   root || callerDirs[top],
		census: top == "internal" && obj.Name() != "_",
		member: member,
	}
	if member != nil {
		d.uses = append(d.uses, member)
	}
	b.byObj[obj] = d
	b.c.decls = append(b.c.decls, d)
	return d
}

// owns records that the declarations ds own the syntax n.
func (b *censusBuilder) owns(info *types.Info, n ast.Node, ds ...*censusDecl) {
	b.owned = append(b.owned, ownedSyntax{&censusWalker{b: b, info: info, cur: ds}, n})
}

// declareValues makes the types, consts and vars of one file, and the
// fields of its struct types.
func (b *censusBuilder) declareValues(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		decl, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		var last *ast.ValueSpec
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				d := b.add(info.Defs[spec.Name], spec.Name.Name, false, nil)
				b.owns(info, spec, d)
				if st, ok := spec.Type.(*ast.StructType); ok {
					b.declareFields(st, spec.Name.Name, d, info)
				}
			case *ast.ValueSpec:
				var ds []*censusDecl
				for _, id := range spec.Names {
					ds = append(ds, b.add(info.Defs[id], id.Name, id.Name == "_", nil))
				}
				b.owns(info, spec, ds...)
				// A const spec with no type and no values repeats the
				// previous one's, so it uses what that one uses.
				if decl.Tok == token.CONST && spec.Type == nil && len(spec.Values) == 0 && last != nil {
					b.owns(info, last, ds...)
				} else {
					last = spec
				}
			}
		}
	}
}

// declareFuncs makes the funcs and methods of one file. A method's key
// is its receiver type's name and its own.
func (b *censusBuilder) declareFuncs(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		decl, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn := info.Defs[decl.Name].(*types.Func)
		var d *censusDecl
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			tn := t.(*types.Named).Origin().Obj()
			d = b.add(fn, tn.Name()+"."+fn.Name(), false, b.byObj[tn])
		} else {
			d = b.add(fn, fn.Name(), fn.Name() == "init" || fn.Name() == "main", nil)
		}
		b.owns(info, decl, d)
	}
}

// declareFields makes a censusDecl for each named field of st, keyed
// by its struct type's name and its own, through any anonymous struct
// it sits in. An embedded field is part of its struct type, which
// promotes its methods.
func (b *censusBuilder) declareFields(st *ast.StructType, prefix string, member *censusDecl, info *types.Info) {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			d := b.add(info.Defs[id], prefix+"."+id.Name, false, member)
			d.field = true
			b.fields[field] = append(b.fields[field], d)
			ast.Inspect(field.Type, func(n ast.Node) bool {
				if inner, ok := n.(*ast.StructType); ok {
					b.declareFields(inner, prefix+"."+id.Name, member, info)
					return false
				}
				return true
			})
		}
	}
}

// censusWalker adds an edge from the declarations that own the syntax
// it walks to every declaration an identifier there resolves to.
type censusWalker struct {
	b    *censusBuilder
	info *types.Info
	cur  []*censusDecl
}

func (w *censusWalker) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.Field:
		if ds := w.b.fields[n]; ds != nil {
			return &censusWalker{b: w.b, info: w.info, cur: ds}
		}
	case *ast.Ident:
		if obj := w.info.Uses[n]; obj != nil {
			if d := w.use(obj); d != nil && d.field && !w.b.writes[n] {
				pos := w.b.fset.Position(n.Pos())
				rel, _ := filepath.Rel(w.b.root, pos.Filename)
				d.reads = append(d.reads, readSite{filepath.ToSlash(rel), pos.Line})
			}
		}
	case *ast.CompositeLit:
		// A keyed struct literal sets the fields it names; an unkeyed
		// one names and sets every field.
		st, ok := w.info.Types[n].Type.Underlying().(*types.Struct)
		if !ok || len(n.Elts) == 0 {
			break
		}
		if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
			for i := 0; i < st.NumFields(); i++ {
				if d := w.use(st.Field(i)); d != nil {
					d.set = true
				}
			}
		}
		for _, elt := range n.Elts {
			if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
				w.set(kv.Key.(*ast.Ident))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.setChain(lhs)
		}
	case *ast.IncDecStmt:
		w.setChain(n.X)
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			w.setChain(n.Key)
			w.setChain(n.Value)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.setChain(n.X)
		}
	case *ast.SelectorExpr:
		// A pointer-receiver method on a value takes its address:
		// x.mu.Lock() sets x.mu, but x.m.Inc() on a pointer field
		// does not set x.m.
		if sel := w.info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
			_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
			_, ptrX := w.info.Types[n.X].Type.Underlying().(*types.Pointer)
			if ptrRecv && !ptrX {
				w.setChain(n.X)
			}
		}
	}
	return w
}

// setChain marks every field on the selector chain of the written
// expression e as set: a.b.c = v sets b and c, and so does a.b[i].c = v.
func (w *censusWalker) setChain(e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			w.set(x.Sel)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}

// set marks the field id denotes as set, and id as a write, not a read.
func (w *censusWalker) set(id *ast.Ident) {
	if obj := w.info.Uses[id]; obj != nil {
		if d := w.b.decl(obj); d != nil && d.field {
			d.set = true
			w.b.writes[id] = true
		}
	}
}

// use adds an edge to the declaration obj denotes and returns it.
func (w *censusWalker) use(obj types.Object) *censusDecl {
	d := w.b.decl(obj)
	if d != nil {
		for _, c := range w.cur {
			c.uses = append(c.uses, d)
		}
	}
	return d
}

// decl returns the census declaration obj denotes, through the generic
// declaration of an instance, or nil.
func (b *censusBuilder) decl(obj types.Object) *censusDecl {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return b.byObj[obj]
}

func hasKeepClass(reason string) bool {
	for _, class := range keepClasses {
		if strings.HasPrefix(reason, class) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]*censusDecl) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
