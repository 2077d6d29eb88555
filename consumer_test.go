package energysched

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptWithoutConsumer names what stays under internal/ although only
// tests reach, read or set it, each with its reason. A key is a package
// ("obs/obstest"), a declaration ("pkg.Name", "pkg.Type.Method") or a
// field ("pkg.Type.Field"), spelled from below energysched/internal/.
var keptWithoutConsumer = map[string]string{
	"obs/obstest":                           "test-only helper package by design",
	"cluster.Cluster.CheckIndex":            "oracle: the index invariants the cluster and core tests assert after mutations",
	"datacenter.Simulation.CheckInvariants": "oracle: the simulation invariants the datacenter and chaos tests assert between rounds",
	"chaos.FaultScript":                     "seam: scripted WAL faults, plugged into fleet.Config.WALFault by tests",
	"chaos.FaultScript.FailOnce":            "seam: scripts one failing WAL append or sync",
	"chaos.FaultScript.Hook":                "seam: the fleet.Config.WALFault hook itself",
	"chaos.FaultScript.Fired":               "seam: lets a test assert that its scripted faults fired",
	"cluster.MustNew":                       "fixture: builds a cluster or panics",
	"cluster.NewNode":                       "fixture: builds one node outside a cluster",
	"cluster.Node.SetReliability":           "fixture: gives a node the reliability a failure test needs",
	"cluster.Node.Touch":                    "fixture: marks a node changed after a test edits it in place",
	"vm.New":                                "fixture: builds one VM outside a simulation",
	"server.Server.Manager":                 "test access: the fleet manager behind a running server",
	"workload.GeneratorSource.MaxPending":   "counter: tests bound the generator's lookahead with it",
	"simkit.Engine.Pending":                 "counter: tests bound the event queue's length with it",
	"fleet.Fleet.recordEncodes":             "counter: tests pin that a fleet with neither a WAL nor a follower encodes no record",
	"core.SolverStats.DormantSkips":         "counter: the dormant-row tests and the root benchmarks pin it",
	"core.Config.NaiveSolver":               "seam: selects the naive oracle the differential tests compare the kernel with",
	"core.Config.MaxIterations":             "seam: tests cap the solver's moves per round to end rounds early",
	"server.Config.ReplPing":                "seam: tests shorten the leader's replication keepalive",
	"server.Config.EventRing":               "seam: tests shrink the /v1/events replay ring to force a gap",
}

// stdIfaceMethods are methods of standard-library interfaces that a
// package calls after a dynamic type check or through reflection, so
// that no interface in this module need name them.
var stdIfaceMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "WriteString", "Close", "ReadFrom", "WriteTo",
	"ServeHTTP", "Header", "WriteHeader", "Flush",
}

// goList runs `go list args...` in dir and returns its output lines.
func goList(t *testing.T, dir string, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v in %s: %v\n%s", args, dir, err, stderr.String())
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// TestEveryDeclarationHasAConsumer fails on an internal package that
// neither the library nor a command imports, on an internal declaration
// that nothing reaches from the roots (every declaration of cmd/* and
// bench/, the exported API of this package, package-level vars and
// init), and on a field of an internal struct type that non-test code
// never reads or, if exported, never sets. A method is reached with its
// receiver type when reached code selects a module interface method of
// its name, or when stdIfaceMethods names it. keptWithoutConsumer lists
// the exceptions, and an entry that the code no longer needs fails too.
//
// The exported API of this package is a root, not a subject: it is the
// product, and its consumers live outside the module. It answers to
// another rule instead: each Client method is driven from the far side
// of a real energyschedd process by at least one e2e test in
// cmd/energyschedd (docs/ARCHITECTURE.md, "The root API is the
// product"). Review keeps that rule; this test does not.
func TestEveryDeclarationHasAConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	const mod, internal = "energysched", "energysched/internal/"

	deps := map[string]bool{}
	for _, p := range goList(t, ".", "-deps", ".", "./cmd/...") {
		deps[p] = true
	}
	pkgs := goList(t, ".", "./internal/...")
	for _, p := range pkgs {
		kept := keptWithoutConsumer[strings.TrimPrefix(p, internal)] != ""
		switch {
		case !deps[p] && !kept:
			t.Errorf("internal package %s: neither the library nor a command imports it", p)
		case deps[p] && kept:
			t.Errorf("keptWithoutConsumer names %s, which the library or a command imports", p)
		}
	}

	// Parse the non-test files of both modules and type-check them
	// against one another; the standard library comes from source.
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	var order []string
	for _, dir := range []string{".", "bench"} {
		for _, l := range goList(t, dir, "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...") {
			f := strings.Split(l, "\t")
			for _, name := range f[2:] {
				af, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files[f[0]] = append(files[f[0]], af)
			}
			order = append(order, f[0])
		}
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if path != mod && !strings.HasPrefix(path, mod+"/") {
			return std.Import(path)
		}
		if p := checked[path]; p != nil {
			return p, nil
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		checked[path] = p
		return p, err
	}
	for _, path := range order {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// One node per package-level declaration and method, with an edge
	// to every object its source names; a field of an internal struct
	// type is checked on its own.
	refs := map[types.Object][]types.Object{}
	methodsOf := map[*types.TypeName][]*types.Func{}
	fieldKeys := map[*types.Var]string{}
	var roots []types.Object
	decl := func(id *ast.Ident, src ast.Node, root bool) {
		o := info.Defs[id]
		var out []types.Object
		ast.Inspect(src, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch u := info.Uses[id].(type) {
				case *types.Func: // an instance stands for its generic declaration
					out = append(out, u.Origin())
				case nil:
				default:
					out = append(out, u)
				}
			}
			return true
		})
		refs[o] = out
		if root {
			roots = append(roots, o)
		}
	}
	for _, path := range order {
		cmdOrBench := strings.HasPrefix(path, mod+"/cmd/") || strings.HasPrefix(path, mod+"/bench")
		api := func(name string) bool { return cmdOrBench || path == mod && token.IsExported(name) }
		pkg, isInternal := strings.CutPrefix(path, internal)
		for _, f := range files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := info.Defs[d.Name].(*types.Func)
					root := api(o.Name()) || d.Recv == nil && o.Name() == "init"
					if recv := o.Signature().Recv(); recv != nil {
						tn := baseTypeName(recv.Type())
						methodsOf[tn] = append(methodsOf[tn], o)
						root = root && api(tn.Name())
					}
					decl(d.Name, d, root)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl(s.Name, s, api(s.Name.Name))
							if _, ok := s.Type.(*ast.StructType); ok && isInternal && keptWithoutConsumer[pkg] == "" {
								st := info.Defs[s.Name].Type().Underlying().(*types.Struct)
								for i := range st.NumFields() {
									// An encoder reads and a decoder sets
									// a tagged field.
									if f := st.Field(i); st.Tag(i) == "" {
										fieldKeys[f] = pkg + "." + s.Name.Name + "." + f.Name()
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								decl(id, s, d.Tok == token.VAR || api(id.Name))
							}
						}
					}
				}
			}
		}
	}
	read, set := fieldAccess(info, files)

	// Each key of keptWithoutConsumer must name something.
	keys := map[string]types.Object{}
	for o := range refs {
		if pkg, ok := strings.CutPrefix(o.Pkg().Path(), internal); ok {
			keys[declKey(pkg, o)] = o
		}
	}
	for v, key := range fieldKeys {
		keys[key] = v
	}
	isField := func(o types.Object) bool {
		v, ok := o.(*types.Var)
		return ok && fieldKeys[v] != ""
	}
	// An embedded field carries its methods, so it need not be read.
	unread := func(v *types.Var) bool { return !read[v] && !v.Embedded() }
	unset := func(v *types.Var) bool { return v.Exported() && !set[v] }
	for key := range keptWithoutConsumer {
		if keys[key] == nil && !slices.Contains(pkgs, internal+key) {
			t.Errorf("keptWithoutConsumer names %s, which is not declared", key)
		}
	}

	// reach walks the references from roots. A method of a reached type
	// is reached when reached code selects a module interface method of
	// its name, or when stdIfaceMethods names it.
	reach := func(roots []types.Object) map[types.Object]bool {
		roots = slices.Clone(roots)
		reached := map[types.Object]bool{}
		selected := map[string]bool{}
		for _, m := range stdIfaceMethods {
			selected[m] = true
		}
		var reachedTypes []*types.TypeName
		rootMethods := func(tn *types.TypeName) {
			for _, m := range methodsOf[tn] {
				if selected[m.Name()] {
					roots = append(roots, m)
				}
			}
		}
		for len(roots) > 0 {
			o := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			if m, ok := o.(*types.Func); ok && moduleInterfaceMethod(m, mod) && !selected[m.Name()] {
				selected[m.Name()] = true
				for _, tn := range reachedTypes {
					rootMethods(tn)
				}
			}
			out, ok := refs[o]
			if !ok || reached[o] {
				continue
			}
			reached[o] = true
			roots = append(roots, out...)
			if tn, ok := o.(*types.TypeName); ok {
				reachedTypes = append(reachedTypes, tn)
				rootMethods(tn)
			}
		}
		return reached
	}

	// What keptWithoutConsumer names must need the list: a declaration
	// the roots reach without it, or a field that non-test code reads
	// and (if exported) sets, is a stale entry.
	needed := reach(roots)
	for key := range keptWithoutConsumer {
		o := keys[key]
		if isField(o) {
			if v := o.(*types.Var); !unread(v) && !unset(v) {
				t.Errorf("keptWithoutConsumer names %s, which non-test code reads and sets", key)
			}
		} else if o != nil && needed[o] {
			t.Errorf("keptWithoutConsumer names %s, which the roots reach without it", key)
		}
	}

	// What keptWithoutConsumer names is a root too, so that what it
	// uses is not reported.
	for key, o := range keys {
		pkg, _, _ := strings.Cut(key, ".")
		if keptWithoutConsumer[key] != "" || keptWithoutConsumer[pkg] != "" {
			roots = append(roots, o)
		}
	}
	reached := reach(roots)
	var unused []string
	for key, o := range keys {
		if keptWithoutConsumer[key] != "" {
			continue
		}
		pos := fset.Position(o.Pos())
		if isField(o) {
			v := o.(*types.Var)
			if unread(v) {
				unused = append(unused, fmt.Sprintf("no non-test code reads field %s (%s)", key, pos))
			}
			if unset(v) {
				unused = append(unused, fmt.Sprintf("no non-test code sets field %s (%s)", key, pos))
			}
		} else if !reached[o] {
			unused = append(unused, fmt.Sprintf("only tests reach %s (%s)", key, pos))
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// moduleInterfaceMethod reports whether m is a method of an interface
// declared in module mod.
func moduleInterfaceMethod(m *types.Func, mod string) bool {
	recv := m.Signature().Recv()
	return recv != nil && types.IsInterface(recv.Type()) && m.Pkg() != nil &&
		(m.Pkg().Path() == mod || strings.HasPrefix(m.Pkg().Path(), mod+"/"))
}

// fieldAccess reports which struct fields the files read and which they
// set. A composite-literal key, the left side of an assignment and the
// operand of ++ or -- set a field without reading it; &x.f does both.
// Comparing structs with == or != and keying a map by a struct read
// all of the struct's fields.
func fieldAccess(info *types.Info, files map[string][]*ast.File) (read, set map[*types.Var]bool) {
	read, set = map[*types.Var]bool{}, map[*types.Var]bool{}
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if s := info.Selections[sel]; ok && s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	// setPath sets the field e selects, and the fields it is reached
	// through (x.f.g = 1 sets g and f), and returns e's selector.
	setPath := func(e ast.Expr) *ast.SelectorExpr {
		sel, v := field(e)
		for s, u := sel, v; u != nil; s, u = field(s.X) {
			set[u] = true
		}
		return sel
	}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for f := range u.Fields() {
				read[f.Origin()] = true
				readAll(f.Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(m.Key())
		}
	}
	written := map[*ast.SelectorExpr]bool{}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							if sel := setPath(l); sel != nil {
								written[sel] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if sel := setPath(n.X); sel != nil {
						written[sel] = true
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setPath(n.X)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.TypeOf(n.X))
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							set[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.SelectorExpr:
					if _, v := field(n); v != nil && !written[n] {
						read[v] = true
					}
				}
				return true
			})
		}
	}
	return read, set
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// baseTypeName returns the named type a method is declared on.
func baseTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// declKey spells a declaration of package pkg as keptWithoutConsumer does.
func declKey(pkg string, o types.Object) string {
	if f, ok := o.(*types.Func); ok && f.Signature().Recv() != nil {
		return pkg + "." + baseTypeName(f.Signature().Recv().Type()).Name() + "." + f.Name()
	}
	return pkg + "." + o.Name()
}
