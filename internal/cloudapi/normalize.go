package cloudapi

// NormalizeResult deep-converts every Ref value in a result to its
// plain ID string. Cloud APIs return resource identifiers on the wire,
// never typed references; applying this at the Backend boundary lets
// the spec-interpreted emulator (which manipulates typed refs
// internally) and the hand-written oracle (which uses ID strings)
// produce byte-comparable responses.
func NormalizeResult(r Result) Result {
	if r == nil {
		return nil
	}
	out := make(Result, len(r))
	for k, v := range r {
		out[k] = NormalizeValue(v)
	}
	return out
}

// EqualNormalized reports whether NormalizeValue(*a) equals
// NormalizeValue(*b) without building either copy: a ref compares as
// the string of its ID, at any depth. The differential comparator runs
// it on every step of every replay, so it reads through pointers and
// never allocates.
func EqualNormalized(a, b *Value) bool { return equalNormalized(*a, *b) }

// equalNormalized takes its operands by value: map elements are not
// addressable, and the address of a range copy passed down this
// recursion would move every copy to the heap.
func equalNormalized(a, b Value) bool {
	if as, ok := normalizedString(a); ok {
		bs, ok := normalizedString(b)
		return ok && as == bs
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNil:
		return true
	case KindInt, KindBool:
		return a.n == b.n
	case KindList:
		if a.n != b.n {
			return false
		}
		al, bl := a.list(), b.list()
		for i := range al {
			if !equalNormalized(al[i], bl[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(a.m) != len(b.m) {
			return false
		}
		for k, ae := range a.m {
			be, ok := b.m[k]
			if !ok || !equalNormalized(ae, be) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// normalizedString is the string a string or ref normalizes to.
func normalizedString(v Value) (string, bool) {
	switch v.kind {
	case KindString:
		return v.s, true
	case KindRef:
		return v.s, true
	default:
		return "", false
	}
}

// NormalizeValue converts refs to ID strings recursively.
func NormalizeValue(v Value) Value {
	switch v.Kind() {
	case KindRef:
		return Str(v.AsRef().ID)
	case KindList:
		l := v.AsList()
		out := make([]Value, len(l))
		for i, e := range l {
			out[i] = NormalizeValue(e)
		}
		return List(out...)
	case KindMap:
		m := v.AsMap()
		out := make(map[string]Value, len(m))
		for k, e := range m {
			out[k] = NormalizeValue(e)
		}
		return Map(out)
	default:
		return v
	}
}
