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
// tests reach it, each with its reason. A key is a package ("obs/obstest")
// or a declaration ("pkg.Name", "pkg.Type.Method"), spelled from below
// energysched/internal/.
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
	"metrics.Histogram.Max":                 "read by cmd/loadgen's summary, which ROADMAP item 1(a) settles",
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
// neither the library nor a command imports, and on an internal
// declaration that nothing reaches from the roots: every declaration of
// cmd/* and bench/, the exported API of this package, package-level
// vars and init. A method named like an interface method is reached
// with its receiver type. keptWithoutConsumer lists the exceptions.
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
		if !deps[p] && keptWithoutConsumer[strings.TrimPrefix(p, internal)] == "" {
			t.Errorf("internal package %s: neither the library nor a command imports it", p)
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
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
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
	// to every object its source names.
	refs := map[types.Object][]types.Object{}
	methodsOf := map[*types.TypeName][]*types.Func{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdIfaceMethods {
		ifaceMethods[m] = true
	}
	var roots []types.Object
	decl := func(id *ast.Ident, src ast.Node, root bool) {
		o := info.Defs[id]
		var out []types.Object
		ast.Inspect(src, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch u := info.Uses[n].(type) {
				case *types.Func: // an instance stands for its generic declaration
					out = append(out, u.Origin())
				case nil:
				default:
					out = append(out, u)
				}
			case *ast.InterfaceType:
				for m := range info.Types[n].Type.(*types.Interface).Methods() {
					ifaceMethods[m.Name()] = true
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

	// What keptWithoutConsumer names is a root too, so that what it
	// uses is not reported; each of its keys must name something.
	keys := map[string]types.Object{}
	for o := range refs {
		if pkg, ok := strings.CutPrefix(o.Pkg().Path(), internal); ok {
			key := declKey(pkg, o)
			keys[key] = o
			if keptWithoutConsumer[key] != "" || keptWithoutConsumer[pkg] != "" {
				roots = append(roots, o)
			}
		}
	}
	for key := range keptWithoutConsumer {
		if keys[key] == nil && !slices.Contains(pkgs, internal+key) {
			t.Errorf("keptWithoutConsumer names %s, which is not declared", key)
		}
	}

	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		out, ok := refs[o]
		if !ok || reached[o] {
			continue
		}
		reached[o] = true
		roots = append(roots, out...)
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range methodsOf[tn] {
				if ifaceMethods[m.Name()] {
					roots = append(roots, m)
				}
			}
		}
	}
	var unreached []string
	for key, o := range keys {
		if !reached[o] {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", key, fset.Position(o.Pos())))
		}
	}
	slices.Sort(unreached)
	for _, u := range unreached {
		t.Errorf("only tests reach %s", u)
	}
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
