package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"lce"
)

// opKind classifies a step for the read/write/error mix.
type opKind int

const (
	kindRead opKind = iota
	kindWrite
	kindError
)

// step is one call of the per-session script.
type step struct {
	action string // "" means the session-scoped reset route
	params string // JSON object of parameters
	kind   opKind
}

// cycle is the per-session script: one CI test case against the
// emulator. It resets the session's account, applies a small VPC
// stack, plans against it (describes), trips the two documented error
// classes, and destroys the stack again. The leading reset is what
// keeps cost from drifting: the interpreter remembers destroyed
// instances (and snapshots them), so a session that only created and
// deleted would grow without bound. 10 reads, 10 writes, 2 expected
// errors; after a reset ID allocation restarts, so every cycle must be
// handed exactly the same IDs.
var cycle = []step{
	{"", `{}`, kindWrite},
	{"CreateVpc", `{"cidrBlock":"10.0.0.0/16"}`, kindWrite},
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.1.0/24"}`, kindWrite},
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.2.0/24"}`, kindWrite},
	{"CreateSecurityGroup", `{"vpcId":"vpc-00000001","groupName":"web","description":"bench"}`, kindWrite},
	{"AuthorizeSecurityGroupIngress", `{"groupId":"sg-00000001","ipProtocol":"tcp","fromPort":443,"toPort":443,"cidrIpv4":"0.0.0.0/0"}`, kindWrite},
	{"DescribeVpcs", `{}`, kindRead},
	{"DescribeSubnets", `{}`, kindRead},
	{"DescribeSecurityGroups", `{}`, kindRead},
	{"DescribeSecurityGroupRules", `{}`, kindRead},
	{"DeleteVpc", `{"vpcId":"vpc-00000001"}`, kindError},                              // DependencyViolation
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.3.0/29"}`, kindError}, // InvalidSubnet.Range
	{"DescribeVpcs", `{}`, kindRead},
	{"DescribeSubnets", `{}`, kindRead},
	{"RevokeSecurityGroupRule", `{"securityGroupRuleId":"sgr-00000001"}`, kindWrite},
	{"DeleteSecurityGroup", `{"groupId":"sg-00000001"}`, kindWrite},
	{"DeleteSubnet", `{"subnetId":"subnet-00000001"}`, kindWrite},
	{"DeleteSubnet", `{"subnetId":"subnet-00000002"}`, kindWrite},
	{"DescribeSubnets", `{}`, kindRead},
	{"DeleteVpc", `{"vpcId":"vpc-00000001"}`, kindWrite},
	{"DescribeVpcs", `{}`, kindRead},
	{"DescribeSecurityGroups", `{}`, kindRead},
}

// baseSteps is how much of the first cycle set-up runs for every
// session: the reset and the five creates, so each session starts the
// timed stages resident (and, on a durable node, on disk) with a world.
const baseSteps = 6

// describes are the read actions whose bodies define a session's
// observable state for the post-run checks.
var describes = []string{"DescribeVpcs", "DescribeSubnets", "DescribeSecurityGroups", "DescribeSecurityGroupRules"}

// expect is what a correct server must answer to one step: exact
// status, content type, and body — everything but the request ID,
// which the server mints. The body is held as the bytes before and
// after the ID; a body without one (the reset's empty 204) is all
// prefix.
type expect struct {
	status         int
	contentType    string
	hasID          bool
	prefix, suffix []byte
}

// refID stands in for the server-minted request ID while the reference
// answers are generated; bodies are split around it.
const refID = "lce-REFERENCE-ID"

// matches reports whether a response is the expected one.
func (e *expect) matches(status int, contentType string, body []byte) bool {
	if status != e.status || contentType != e.contentType {
		return false
	}
	if !e.hasID {
		return bytes.Equal(body, e.prefix)
	}
	return len(body) > len(e.prefix)+len(e.suffix) &&
		bytes.HasPrefix(body, e.prefix) && bytes.HasSuffix(body, e.suffix)
}

// reference is the in-process model every server answer is checked
// against: a learned ec2 backend from the library behind the same HTTP
// front-end, driven with a fixed request ID.
type reference struct {
	backend lce.Backend
	handler http.Handler
}

func newReference() (*reference, error) {
	b, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		return nil, err
	}
	return &reference{backend: b, handler: lce.Serve(b)}, nil
}

func stepPath(s step) string {
	if s.action == "" {
		return "/v2/ec2/reset"
	}
	return "/v2/ec2?Action=" + s.action
}

func stepBody(s step) string {
	if s.action == "" {
		return ""
	}
	return `{"params":` + s.params + `}`
}

// answer runs one step against the reference and returns the expected
// response.
func (r *reference) answer(s step) (expect, error) {
	req := httptest.NewRequest("POST", stepPath(s), strings.NewReader(stepBody(s)))
	req.Header.Set("X-LCE-Request-Id", refID)
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, req)
	before, after, hasID := bytes.Cut(rec.Body.Bytes(), []byte(refID))
	if !hasID && rec.Body.Len() > 0 {
		return expect{}, fmt.Errorf("reference answer to %s carries no request ID: %s", stepPath(s), rec.Body.Bytes())
	}
	return expect{
		status:      rec.Code,
		contentType: rec.Header().Get("Content-Type"),
		hasID:       hasID,
		prefix:      append([]byte(nil), before...),
		suffix:      append([]byte(nil), after...),
	}, nil
}

// cycleExpectations runs the whole cycle through the reference once.
// Because every cycle starts with a reset the answers are the same for
// every cycle of every session.
func (r *reference) cycleExpectations() ([]expect, error) {
	out := make([]expect, len(cycle))
	for i, s := range cycle {
		e, err := r.answer(s)
		if err != nil {
			return nil, err
		}
		wantOK := s.kind != kindError
		if gotOK := e.status < 300; gotOK != wantOK {
			return nil, fmt.Errorf("reference step %d (%s) answered %d: %s…%s", i, s.action, e.status, e.prefix, e.suffix)
		}
		out[i] = e
	}
	return out, nil
}

// stateAfter replays the first n ops of a session's script through the
// reference and returns the expected answer to each describe — the
// session's observable state. Only the ops since the last reset matter.
func (r *reference) stateAfter(n int) ([]expect, error) {
	last := 0 // index of the latest reset among ops 0..n-1
	if n == 0 {
		r.backend.Reset()
	} else {
		last = (n - 1) / len(cycle) * len(cycle)
	}
	for i := last; i < n; i++ {
		if _, err := r.answer(cycle[i%len(cycle)]); err != nil {
			return nil, err
		}
	}
	out := make([]expect, len(describes))
	for i, a := range describes {
		e, err := r.answer(step{action: a, params: `{}`})
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// session is one tenant's place in its script. A session belongs to
// exactly one client at a time, so its calls are strictly sequential.
type session struct {
	name string
	n    int      // ops executed so far
	reqs [][]byte // one pre-rendered request per cycle step (see newTarget)
}

func newSessions(prefix string, count int) []*session {
	out := make([]*session, count)
	for i := range out {
		// Names are fixed, not seeded: they decide pool shard and ring
		// owner, and a seed must not change how sessions spread.
		out[i] = &session{name: fmt.Sprintf("%s%02d", prefix, i)}
	}
	return out
}

// picker is one client's seeded choice of which of its sessions calls
// next. The op stream is a pure function of (seed, client, stage): the
// i-th call goes to session pick(i) and is that session's next step.
type picker struct {
	rng      *rand.Rand
	sessions []*session
}

func newPicker(seed int64, stage, client int, sessions []*session) *picker {
	return &picker{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stage)*1009 + int64(client))), sessions: sessions}
}

func (p *picker) next() *session { return p.sessions[p.rng.Intn(len(p.sessions))] }
