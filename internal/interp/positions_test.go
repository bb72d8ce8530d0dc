package interp

import (
	"fmt"
	"strings"
	"testing"

	"lce/internal/cloudapi"
)

// positionsSpec holds one expression in the four places an expression
// is lowered: as a written value, as an asserted predicate, as a
// returned value and as a call target (B owns the callee). The spec is
// never type-checked, so it can hold expressions a checked spec
// rejects.
const positionsSpec = `
service x {
  sm A {
    idprefix "a"
    states { s: str  t: str  n: int  b: bool  l: list(str)  mp: map  cidr: str  out: str }
    transition Mk() create {
      write(s, "abc")
      write(t, "abd")
      write(n, 3)
      write(b, true)
      write(l, append(append(emptyList(), "x"), "y"))
      write(mp, mapSet(emptyMap(), "k", "v"))
      write(cidr, "10.0.0.0/16")
    }
    transition W(self: ref(A), p: int, q: str) modify { write(out, %[1]s) }
    transition S(self: ref(A), p: int, q: str) modify { assert(%[1]s) error "Failed" }
    transition R(self: ref(A), p: int, q: str) describe { return(v, %[1]s) }
    transition C(self: ref(A), p: int, q: str) modify { call((%[1]s)._Touch()) }
  }
  sm B {
    notfound "NoSuchB"
    transition _Touch(self: ref(B)) modify internal { }
  }
}
`

// TestInterpDifferentialPositions runs each expression through write,
// assert, return and call on the walker and on the engine, which must
// agree on results, error text and world state (invokeBoth). err is
// the framework error the expression must raise, "" if it must
// evaluate; as a predicate, an expression that evaluates may also fail
// its assertion. As a call target, a value that returns nil answers
// B's not-found code, and any other (none is a live B) a framework
// error.
func TestInterpDifferentialPositions(t *testing.T) {
	cases := []struct{ expr, err string }{
		// Ordered comparisons: strings, ints, computed ints.
		{`s < t`, ""},
		{`t <= s`, ""},
		{`q >= "abc"`, ""},
		{`"b" > s`, ""},
		{`s < s`, ""},
		{`n + p > 5`, ""},
		{`n - p >= 0`, ""},
		{`p < n + 1`, ""},
		// Kind mismatches.
		{`1 < "a"`, "ordered comparison between int and string"},
		{`1 + 1 > "x"`, "ordered comparison between int and string"},
		{`read(zz) < 1`, "ordered comparison between nil and int"},
		{`n >= read(zz)`, "ordered comparison between int and nil"},
		{`b < b`, "ordered comparison between bool and bool"},
		{`l > l`, "ordered comparison between list and list"},
		{`(1 < "a") == true`, "ordered comparison between int and string"},
		{`!(s < 1)`, "ordered comparison between string and int"},
		// Equality, arithmetic, negation and connectives.
		{`s == "abc"`, ""},
		{`s != t`, ""},
		{`l == append(append(emptyList(), "x"), "y")`, ""},
		{`mp != mp`, ""},
		{`n + p`, ""},
		{`n - 10`, ""},
		{`s + 1`, ""},
		{`nowhere + 1`, `unbound identifier "nowhere"`},
		{`n - nowhere`, `unbound identifier "nowhere"`},
		{`!b`, ""},
		{`!read(zz)`, ""},
		{`-n`, ""},
		{`-s`, ""},
		{`b && s`, ""},
		{`read(zz) && nowhere`, ""},
		{`b || nowhere`, ""},
		{`read(zz) || nowhere`, `unbound identifier "nowhere"`},
		// Unknown builtins and wrong arities; argument errors win.
		{`nosuch(read(zz))`, `unknown builtin "nosuch"`},
		{`len(1, 2)`, "builtin len: 2 args, want 1"},
		{`isnil()`, "builtin isnil: 0 args, want 1"},
		{`len(nowhere, 2)`, `unbound identifier "nowhere"`},
		{`nosuch(1 < "a")`, "ordered comparison between int and string"},
		// Every builtin over arguments of the wrong kind.
		{`len(true)`, "builtin len: unsupported kind bool"},
		{`len(self)`, "builtin len: unsupported kind ref"},
		{`isnil(1)`, ""},
		{`id("x")`, "builtin id: argument is string, want ref"},
		{`children(1)`, ""},
		{`instances(1)`, ""},
		{`append(1, 2)`, ""},
		{`remove("x", 1)`, ""},
		{`contains(1, 1)`, ""},
		{`concat(1, 2)`, ""},
		{`pluck(1, 2)`, ""},
		{`mapMerge(1, "x")`, ""},
		{`first("x")`, ""},
		{`hasPrefix(1, 2)`, ""},
		{`mapSet(1, 2, 3)`, ""},
		{`mapDel(1, 2)`, ""},
		{`lookup(1, 2)`, ""},
		{`lookup("A", 1)`, ""},
		{`matching(1, 2, 3)`, ""},
		{`filterEq(1, 2, 3)`, ""},
		{`cidrCapacity(1)`, ""},
		{`cidrValid(1)`, ""},
		{`prefixLen(1)`, ""},
		{`cidrWithin(1, 2)`, ""},
		{`cidrOverlaps(1, 2)`, ""},
		{`attrs("x")`, "builtin attrs: argument is string, want ref"},
		{`describe("x")`, "builtin describe: argument is string, want ref"},
		{`describeAll(1)`, ""},
		{`describeEach("x")`, ""},
		// Every builtin over arguments of the right kind.
		{`len(s) + len(l) + len(mp) + len(read(zz))`, ""},
		{`isnil(read(zz))`, ""},
		{`id(self)`, ""},
		{`children("A")`, ""},
		{`instances("A")`, ""},
		{`append(l, q)`, ""},
		{`remove(l, "x")`, ""},
		{`contains(l, "y")`, ""},
		{`concat(s, q)`, ""},
		{`emptyList()`, ""},
		{`emptyMap()`, ""},
		{`pluck(instances("A"), "s")`, ""},
		{`mapMerge(mp, mapSet(emptyMap(), "j", p))`, ""},
		{`first(l)`, ""},
		{`hasPrefix(s, "ab")`, ""},
		{`mapDel(mp, "k")`, ""},
		{`lookup("A", id(self))`, ""},
		{`matching("A", "n", 3)`, ""},
		{`filterEq(instances("A"), "s", "abc")`, ""},
		{`cidrCapacity(cidr) - 5`, ""},
		{`cidrValid(cidr)`, ""},
		{`prefixLen(cidr)`, ""},
		{`cidrWithin("10.0.1.0/24", cidr)`, ""},
		{`cidrOverlaps(cidr, "10.1.0.0/16")`, ""},
		{`attrs(self)`, ""},
		{`describe(self)`, ""},
		{`describeAll("A")`, ""},
		{`describeEach(instances("A"))`, ""},
		// Nil call targets.
		{`first(emptyList())`, ""},
		{`lookup("A", "a-missing")`, ""},
		{`first(matching("A", "n", 99))`, ""},
	}
	params := cloudapi.Params{"self": cloudapi.Str("a-00000001"), "p": cloudapi.Int(3), "q": cloudapi.Str("abc")}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			walk, comp := diffPair(t, fmt.Sprintf(positionsSpec, tc.expr))
			if _, err := invokeBoth(t, walk, comp, "Mk", nil); err != nil {
				t.Fatalf("Mk: %v", err)
			}
			var returned cloudapi.Value
			for _, action := range []string{"W", "S", "R", "C"} {
				res, err := invokeBoth(t, walk, comp, action, params)
				if action == "R" {
					returned = res.Get("v")
				}
				ae, isAPI := cloudapi.AsAPIError(err)
				switch {
				case tc.err != "":
					if err == nil || !strings.Contains(err.Error(), tc.err) {
						t.Errorf("%s: err %v, want %q", action, err, tc.err)
					}
				case action == "C" && returned.IsNil():
					if !isAPI || ae.Code != "NoSuchB" {
						t.Errorf("C: nil target: err %v, want B's NoSuchB", err)
					}
				case action == "C":
					if err == nil || isAPI {
						t.Errorf("C: target %s: err %v, want a framework error", returned, err)
					}
				case err == nil:
				case action == "S":
					if !isAPI || ae.Code != "Failed" {
						t.Errorf("%s: err %v, want success or the assertion's Failed", action, err)
					}
				default:
					t.Errorf("%s: err %v, want success", action, err)
				}
			}
		})
	}
}
