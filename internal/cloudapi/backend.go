package cloudapi

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Params carries the named arguments of an API request.
type Params map[string]Value

// Get returns the named parameter, or Nil when absent.
func (p Params) Get(name string) Value {
	if p == nil {
		return Nil
	}
	return p[name]
}

// Has reports whether the named parameter is present and non-nil.
func (p Params) Has(name string) bool {
	v, ok := p[name]
	return ok && !v.IsNil()
}

// Clone returns a shallow copy of the parameter map.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Request is one API invocation: an action name plus named parameters,
// mirroring the query-style cloud control APIs the paper's DevOps
// programs issue (e.g. Action=CreateVpc&CidrBlock=10.0.0.0/16).
type Request struct {
	Action string
	Params Params
	// Ctx optionally carries request-scoped observability context (the
	// current tracing span, see internal/obsv) through the backend
	// wrapper layers — retry, fault injection, latency — so each layer
	// can annotate the span for the call it is serving. It is never
	// serialized on the wire and never participates in behavioural
	// comparison: two requests differing only in Ctx are the same API
	// call. A nil Ctx is always valid and means "untraced".
	Ctx context.Context `json:"-"`
}

// Result is the attribute map a successful API invocation returns.
type Result map[string]Value

// Get returns the named result attribute, or Nil when absent.
func (r Result) Get(name string) Value {
	if r == nil {
		return Nil
	}
	return r[name]
}

// Keys returns the result's attribute names in sorted order.
func (r Result) Keys() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// APIError is the structured error a cloud API returns. Per the paper
// (§4.3), error *codes* must align exactly between emulator and cloud,
// while error *messages* are for human consumption and may differ in
// wording.
type APIError struct {
	Code    string
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Message == "" {
		return e.Code
	}
	return e.Code + ": " + e.Message
}

// Errf constructs an APIError with a formatted message.
func Errf(code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// AsAPIError unwraps err into an *APIError when it is (or wraps) one.
// Wrapper layers — the HTTP client's wire-metadata error, fmt %w
// chains — stay classifiable as API errors as long as they expose
// Unwrap.
func AsAPIError(err error) (*APIError, bool) {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// Common framework-level error codes shared across services.
const (
	CodeUnknownAction       = "InvalidAction"
	CodeMissingParameter    = "MissingParameter"
	CodeInvalidParameter    = "InvalidParameterValue"
	CodeDependencyViolation = "DependencyViolation"
	CodeInternalFailure     = "InternalFailure"
	// CodeInvalidSession rejects a malformed or unavailable tenant
	// session selector (the v2 HTTP API's X-LCE-Session header).
	CodeInvalidSession = "InvalidSession"
	// CodeInvalidService rejects a v2 request whose /v2/<service>
	// path segment names a service this server does not host.
	CodeInvalidService = "InvalidService"
)

// Transient infrastructure fault codes: the throttling, availability
// and timeout failures real cloud control planes return under load.
// They describe the state of the service, not of the request, so a
// resilient client retries them (internal/retry) and the chaos layer
// injects them (internal/fault). Semantic error codes — everything
// else — describe the request and must never be retried: the cloud
// would reject the call again.
const (
	CodeThrottling           = "Throttling"
	CodeRequestLimitExceeded = "RequestLimitExceeded"
	CodeThrottlingException  = "ThrottlingException"
	CodeThroughputExceeded   = "ProvisionedThroughputExceededException"
	CodeInternalError        = "InternalError"
	CodeServiceUnavailable   = "ServiceUnavailable"
	CodeRequestTimeout       = "RequestTimeout"
	// CodeBadGateway is a router-originated fault: a cluster front
	// tier could not complete the exchange with the node owning the
	// session (the node died mid-response, or answered garbage). Like
	// the other availability codes it describes the fleet, not the
	// request, so retrying against the rebalanced ring is the correct
	// client move.
	CodeBadGateway = "BadGateway"
)

// transientCodes is the classifier's transient set. InternalFailure is
// included: AWS documents all 5xx families as retryable, and no oracle
// in this repository uses it for a semantic (request-shaped) error.
var transientCodes = map[string]bool{
	CodeThrottling:           true,
	CodeRequestLimitExceeded: true,
	CodeThrottlingException:  true,
	CodeThroughputExceeded:   true,
	CodeInternalError:        true,
	CodeServiceUnavailable:   true,
	CodeRequestTimeout:       true,
	CodeInternalFailure:      true,
	CodeBadGateway:           true,
}

// IsTransientCode reports whether code names a transient
// infrastructure fault (retryable) rather than a semantic API error.
func IsTransientCode(code string) bool { return transientCodes[code] }

// Backend is a cloud-shaped thing that can execute API requests: the
// ground-truth cloud models, the learned (spec-interpreted) emulator,
// the manual baseline, and the direct-to-code baseline all implement
// it. Differential testing and the HTTP front-end are written against
// this interface only.
type Backend interface {
	// Service returns the service name, e.g. "ec2".
	Service() string
	// Actions returns the sorted list of actions this backend can
	// execute. Used for coverage accounting (Table 1).
	Actions() []string
	// Invoke executes one request. API-level failures are returned as
	// *APIError; any other error kind indicates a backend malfunction.
	Invoke(req Request) (Result, error)
	// Reset clears all resource state, returning the backend to a
	// fresh account.
	Reset()
}
