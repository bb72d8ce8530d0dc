# Mirrors .github/workflows/ci.yml — `make ci` runs exactly what the
# CI gate runs, so a green local run means a green PR.

GO ?= go

.PHONY: build test race lint bench chaos obsv-smoke tenant-smoke ops-smoke durable-smoke cluster-smoke ci

# benchmark/ is a nested module outside `./...` that imports
# lce/internal/...; building and vetting it here is what catches an API
# removal that would otherwise break it silently. It is a single main
# package, so without -o the build would drop a binary into it.
build:
	$(GO) build ./...
	$(GO) -C benchmark build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The forwarder's idle-connection check has a second, build-tagged
# implementation for platforms without a non-blocking socket peek
# (internal/cluster/idle_other.go); vetting for Windows compiles it.
lint:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	GOOS=windows $(GO) vet ./internal/cluster/
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# The allocation assertions (the interpreter's zero-alloc fast path,
# the instrumented handler's budget, the phase mixes' per-request
# budgets in the root package, the learn loop's per-op budget in
# internal/align) are build-tagged out of race runs,
# and `ci` has no plain `test` step, so they run here. -bench=. also
# runs BenchmarkRegistryLookupHit, which fails if a registry hit
# allocates; for the observability cost model's numbers run
#   go test -run '^$$' -bench HandlerCycle -benchtime 2000x -cpu 1 ./internal/httpapi/
# The node's data-plane rows: the request decoder and the success
# encoder alone, beside the whole 22-call handler cycle, ns/op and
# allocs/op, and the same cycle served through the HTTP/1.1 front over
# loopback (served/instrumented is what the server side adds). The
# interpreter rows: a describe, an empty point describe and a create,
# each in the engine and in the reference walker. The router-layer row:
# one traced forward over a loopback upstream. The learning-loop row:
# the four-service default alignment loop, with the oracle replays one
# loop makes.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -run '^$$' -bench 'ReadRequest|WriteWireResponse|HandlerCycle|ServedCycle' -benchtime 2000x -cpu 1 -benchmem ./internal/httpapi/
	$(GO) test -run '^$$' -bench Invoke -benchtime 20000x -cpu 1 -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench RouterForward -benchtime 20000x -cpu 1 -benchmem ./internal/cluster/
	$(GO) test -run '^$$' -bench AlignLoop -benchtime 20x -cpu 1 -benchmem ./internal/align/
	$(GO) test -run 'ZeroAlloc' ./internal/interp/
	$(GO) test -run 'AllocBudget' ./internal/httpapi/ ./internal/align/ .

# Chaos soak: fault/retry packages under the race detector, then
# seeded end-to-end alignments against a 10%-flaky oracle. lce-align
# exits non-zero on any semantic divergence. Short fuzz passes hold
# the wire decoder's scalar fast path and the invoke-body decoder to
# encoding/json on hostile bytes, the spec printer to the parser
# (Print∘Parse is a fixpoint), and the HTTP/1.1 front's request heads
# to http.ReadRequest.
chaos:
	$(GO) test -race -count=2 ./internal/fault/... ./internal/retry/...
	$(GO) test -race -run 'Chaos' ./internal/align/... ./internal/httpapi/...
	$(GO) run ./cmd/lce-align -service ec2 -perfect -chaos -fault-rate 0.1 -chaos-seed 7
	$(GO) run ./cmd/lce-align -service dynamodb -perfect -chaos -fault-rate 0.1 -chaos-seed 7
	$(GO) run ./cmd/lce-align -service ec2 -chaos -fault-rate 0.1 -chaos-seed 7
	$(GO) test -run '^$$' -fuzz FuzzValueUnmarshal -fuzztime 5s ./internal/cloudapi/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWireRequest -fuzztime 5s ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz FuzzParseSM -fuzztime 5s ./internal/spec/
	$(GO) test -run '^$$' -fuzz FuzzH1Request -fuzztime 5s ./internal/h1/

# Observability smoke: a seeded traced alignment run exports its spans
# as JSONL, and lce-tracecheck re-validates the trace from the outside
# (parents resolve within their trace, every trace has a root, no
# duplicate span IDs). A chaos run rides along so fault/retry events
# land in the artifact too.
obsv-smoke:
	$(GO) run ./cmd/lce-align -service ec2 -perfect -workers 4 -trace-out trace.jsonl > /dev/null
	$(GO) run ./cmd/lce-tracecheck trace.jsonl
	@$(GO) run ./cmd/lce-align -service ec2 -perfect -chaos -no-retry -fault-rate 0.1 -chaos-seed 7 -trace-out trace-chaos.jsonl > /dev/null; \
	rc=$$?; [ $$rc -eq 0 ] || [ $$rc -eq 2 ] || exit $$rc # exit 2 = residual exhausted-transient divergences, expected without retries
	$(GO) run ./cmd/lce-tracecheck trace-chaos.jsonl

# Tenant smoke: boot a real lce-server and drive the /v2 surface end
# to end with curl — session isolation, batch, pool stats, and a
# headerless call landing in the default session with a RequestId,
# and a session-scoped reset.
tenant-smoke:
	$(GO) build -o lce-server-smoke ./cmd/lce-server
	@set -e; \
	./lce-server-smoke -service ec2 -backend oracle -addr 127.0.0.1:4597 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f lce-server-smoke' EXIT; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4597/healthz >/dev/null && break; sleep 0.1; done; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}'); \
	echo "$$out" | grep -q '"vpcId"' || { echo "v2 invoke failed: $$out"; exit 1; }; \
	echo "$$out" | grep -q '"RequestId"' || { echo "v2 response missing RequestId: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4597/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q '"vpcs":\[\]' || { echo "session isolation broken, bob sees: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2/batch' -d '{"mode":"best-effort","requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/8"}}]}'); \
	echo "$$out" | grep -q '"succeeded":1' && echo "$$out" | grep -q '"failed":1' || { echo "batch semantics broken: $$out"; exit 1; }; \
	out=$$(curl -sf '127.0.0.1:4597/v2/sessions'); \
	echo "$$out" | grep -q '"sessions":2' || { echo "pool stats wrong: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST '127.0.0.1:4597/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.5.0.0/16"}}'); \
	echo "$$out" | grep -q '"RequestId"' || { echo "headerless v2 response missing RequestId: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: default' '127.0.0.1:4597/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q '10.5.0.0/16' || { echo "headerless call missed the default session: $$out"; exit 1; }; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2/reset' -o /dev/null || { echo "session reset failed"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4597/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q '"vpcs":\[\]' || { echo "session reset did not clear alice: $$out"; exit 1; }; \
	echo "tenant smoke: v2 invoke, isolation, batch, stats, default session, session reset all OK"

# Operations-plane smoke: boot a chaos lce-server with the ops plane
# on, stream /debug/events over SSE while driving seeded traffic, check
# that a live /v2 answer carries its phase breakdown in a Server-Timing
# header and that the scrape carries the lce_phase_seconds histograms,
# lint the live /metrics scrape in both content negotiations with
# lce-tracecheck, then dump the flight recorder and replay it through
# lce-replay against a fresh server with the same seeds — any byte
# difference in any response fails the target. The dump and the SSE
# capture are left behind as artifacts (flight-dump.json,
# ops-events.txt).
ops-smoke:
	$(GO) build -o lce-server-ops ./cmd/lce-server
	$(GO) build -o lce-replay-ops ./cmd/lce-replay
	$(GO) build -o lce-tracecheck-ops ./cmd/lce-tracecheck
	@set -e; \
	./lce-server-ops -service ec2 -backend oracle -chaos -fault-rate 0.2 -chaos-seed 7 -addr 127.0.0.1:4599 -log-format off >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f lce-server-ops lce-replay-ops lce-tracecheck-ops' EXIT; \
	for i in $$(seq 1 50); do curl -s 127.0.0.1:4599/healthz >/dev/null && break; sleep 0.1; done; \
	curl -s -N -m 30 '127.0.0.1:4599/debug/events' > ops-events.txt & sse=$$!; \
	sleep 0.3; \
	hdr=$$(curl -s -D - -o /dev/null -XPOST '127.0.0.1:4599/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}' | grep -i '^server-timing:'); \
	echo "$$hdr" | grep -q 'decode;dur=' || { echo "Server-Timing missing decode phase: $$hdr"; exit 1; }; \
	echo "$$hdr" | grep -q 'interp.dispatch;dur=' || { echo "Server-Timing missing dispatch phase: $$hdr"; exit 1; }; \
	for i in $$(seq 1 15); do \
		curl -s -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4599/v2/ec2?Action=DescribeVpcs' >/dev/null; \
	done; \
	curl -s 127.0.0.1:4599/metrics | grep -q 'lce_phase_seconds_count' || { echo "lce_phase_seconds missing from live scrape"; exit 1; }; \
	curl -s 127.0.0.1:4599/metrics | ./lce-tracecheck-ops -metrics -; \
	curl -s -H 'Accept: application/openmetrics-text' 127.0.0.1:4599/metrics | ./lce-tracecheck-ops -metrics -; \
	curl -s 127.0.0.1:4599/debug/flightrecorder > flight-dump.json; \
	sleep 0.2; kill $$sse 2>/dev/null || true; \
	grep -q '^data: ' ops-events.txt || { echo "no SSE events captured"; exit 1; }; \
	echo "ops smoke: $$(grep -c '^data: ' ops-events.txt) SSE events streamed"; \
	kill $$pid 2>/dev/null; \
	./lce-replay-ops -dump flight-dump.json -backend oracle -chaos -fault-rate 0.2 -chaos-seed 7; \
	echo "ops smoke: Server-Timing, phase histograms, metrics lint (prom + openmetrics), SSE stream, flight dump + byte-identical replay all OK"

# Durable gate: the journal-torture, spill-transparency, and
# kill-and-recover suites under the race detector; short fuzz passes
# over the journal reader and snapshot decoder (the torn-tail /
# bit-flip corpus); then a real-process crash drill — boot lce-server
# over a data directory, mint state across two sessions, kill -9 the
# process, restart over the same directory, and assert every session
# answers with its pre-crash state and continues its ID space, and
# that the recovered session directories hold nothing but
# journal-*.wal segments (the journal is all a session has on disk).
durable-smoke:
	$(GO) test -race ./internal/durable/...
	$(GO) test -race -run 'Durable|Export|Restore|ReplayPartialWindow' ./internal/interp/ .
	$(GO) test -run '^$$' -fuzz FuzzReadJournal -fuzztime 5s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 5s ./internal/durable/
	$(GO) build -o lce-server-durable ./cmd/lce-server
	@set -e; \
	datadir=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -f lce-server-durable; rm -rf $$datadir' EXIT; \
	./lce-server-durable -service ec2 -backend learned -data-dir $$datadir -fsync batch -addr 127.0.0.1:4601 -log-format off >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4601/healthz >/dev/null && break; sleep 0.1; done; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.0.0.0/16"}}' >/dev/null; \
	curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.1.0.0/16"}}' >/dev/null; \
	curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.2.0.0/16"}}' >/dev/null; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	./lce-server-durable -service ec2 -backend learned -data-dir $$datadir -fsync batch -addr 127.0.0.1:4601 -log-format off >/dev/null 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4601/healthz >/dev/null && break; sleep 0.1; done; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q 'vpc-00000001' && echo "$$out" | grep -q 'vpc-00000002' || { echo "alice lost state across kill -9: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: alice' '127.0.0.1:4601/v2/ec2?Action=CreateVpc' -d '{"params":{"cidrBlock":"10.3.0.0/16"}}'); \
	echo "$$out" | grep -q 'vpc-00000003' || { echo "alice ID continuity broken after recovery: $$out"; exit 1; }; \
	out=$$(curl -sf -XPOST -H 'X-LCE-Session: bob' '127.0.0.1:4601/v2/ec2?Action=DescribeVpcs'); \
	echo "$$out" | grep -q 'vpc-00000001' || { echo "bob lost state across kill -9: $$out"; exit 1; }; \
	echo "$$out" | grep -q 'vpc-00000002' && { echo "session isolation broken after recovery: $$out"; exit 1; }; \
	out=$$(curl -sf '127.0.0.1:4601/v2/sessions'); \
	echo "$$out" | grep -q '"spilled"' || { echo "pool stats missing spill tier: $$out"; exit 1; }; \
	[ -n "$$(find $$datadir/sessions -type f -name 'journal-*.wal')" ] || { echo "recovered sessions have no journal segments on disk"; exit 1; }; \
	extra=$$(find $$datadir/sessions -type f ! -name 'journal-*.wal'); \
	[ -z "$$extra" ] || { echo "session directories hold more than journal segments: $$extra"; exit 1; }; \
	echo "durable smoke: kill -9 recovery, ID continuity, isolation, spill stats, journal-only layout all OK"

# Cluster smoke: the scale-out tier end to end with real processes.
# Three learned lce-server nodes share one data directory with -fsync
# always; an lce-router fronts them with a fast prober. Sessions
# accumulate state through the router while a control server receives
# the same calls with the same request IDs; one node is kill -9'd
# mid-traffic, and after the ring rebalances every session must
# answer byte-identically to the control — the surviving owners adopt
# the dead node's sessions from the shared directory, and any 5xx in
# the failover window must carry the unified transient envelope. The
# /v2/cluster view must report the death and /v2/sessions must
# aggregate the fleet. The router's fleet-merged /metrics must lint
# (lce-tracecheck -metrics), one label schema per family included.
#
# The tracing leg: every process runs with its default tracer, so
# after the traffic the surviving nodes' /debug/traces dumps plus the
# router's fleet-merged dump form a bundle lce-tracecheck -stitch
# validates — no orphan remote parents, child windows nested in
# parents' (500ms skew: separate processes end spans concurrently),
# migration spans bracketing each placement flip. The router /healthz
# body must carry the fleet SLO section.
cluster-smoke:
	$(GO) test -race ./internal/cluster/...
	$(GO) build -o lce-server-cluster ./cmd/lce-server
	$(GO) build -o lce-router-cluster ./cmd/lce-router
	$(GO) build -o lce-tracecheck-cluster ./cmd/lce-tracecheck
	@set -e; \
	datadir=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 $$pr $$pc 2>/dev/null || true; rm -f lce-server-cluster lce-router-cluster lce-tracecheck-cluster; rm -rf $$datadir' EXIT; \
	./lce-server-cluster -service ec2 -backend learned -node n1 -data-dir $$datadir -fsync always -addr 127.0.0.1:4611 -log-format off >/dev/null 2>&1 & p1=$$!; \
	./lce-server-cluster -service ec2 -backend learned -node n2 -data-dir $$datadir -fsync always -addr 127.0.0.1:4612 -log-format off >/dev/null 2>&1 & p2=$$!; \
	./lce-server-cluster -service ec2 -backend learned -node n3 -data-dir $$datadir -fsync always -addr 127.0.0.1:4613 -log-format off >/dev/null 2>&1 & p3=$$!; \
	./lce-server-cluster -service ec2 -backend learned -addr 127.0.0.1:4614 -log-format off >/dev/null 2>&1 & pc=$$!; \
	for port in 4611 4612 4613 4614; do for i in $$(seq 1 50); do curl -sf 127.0.0.1:$$port/healthz >/dev/null && break; sleep 0.1; done; done; \
	./lce-router-cluster -addr 127.0.0.1:4610 -nodes n1=http://127.0.0.1:4611,n2=http://127.0.0.1:4612,n3=http://127.0.0.1:4613 -probe-interval 200ms -fail-threshold 1 >/dev/null 2>&1 & pr=$$!; \
	for i in $$(seq 1 50); do curl -sf 127.0.0.1:4610/healthz >/dev/null && break; sleep 0.1; done; \
	for s in 1 2 3 4 5 6; do for c in 1 2; do \
		r=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: pre-$$s-$$c" "127.0.0.1:4610/v2/ec2?Action=CreateVpc" -d "{\"params\":{\"cidrBlock\":\"10.$$c.0.0/16\"}}"); \
		k=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: pre-$$s-$$c" "127.0.0.1:4614/v2/ec2?Action=CreateVpc" -d "{\"params\":{\"cidrBlock\":\"10.$$c.0.0/16\"}}"); \
		[ "$$r" = "$$k" ] || { echo "pre-kill divergence (session $$s call $$c):"; echo "router : $$r"; echo "control: $$k"; exit 1; }; \
	done; done; \
	kill -9 $$p2; \
	sleep 1; \
	for s in 1 2 3 4 5 6; do \
		for i in $$(seq 1 30); do \
			code=$$(curl -s -o /tmp/lce-cluster-smoke-body -w '%{http_code}' -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: post-$$s" "127.0.0.1:4610/v2/ec2?Action=DescribeVpcs"); \
			[ "$$code" = 502 ] || [ "$$code" = 503 ] || break; \
			grep -q '"__error":true' /tmp/lce-cluster-smoke-body || { echo "failover 5xx without unified envelope: $$(cat /tmp/lce-cluster-smoke-body)"; exit 1; }; \
			sleep 0.2; \
		done; \
		r=$$(cat /tmp/lce-cluster-smoke-body); \
		k=$$(curl -s -XPOST -H "X-LCE-Session: smoke-$$s" -H "X-LCE-Request-Id: post-$$s" "127.0.0.1:4614/v2/ec2?Action=DescribeVpcs"); \
		[ "$$r" = "$$k" ] || { echo "post-kill divergence (session $$s):"; echo "router : $$r"; echo "control: $$k"; exit 1; }; \
	done; \
	out=$$(curl -s 127.0.0.1:4610/v2/cluster); \
	echo "$$out" | grep -q '"healthy":false' || { echo "cluster view missing dead node: $$out"; exit 1; }; \
	out=$$(curl -s 127.0.0.1:4610/v2/sessions); \
	echo "$$out" | grep -q '"cluster":true' || { echo "fleet sessions aggregation broken: $$out"; exit 1; }; \
	out=$$(curl -s 127.0.0.1:4610/healthz); \
	echo "$$out" | grep -q '"slo"' || { echo "router /healthz missing fleet SLO section: $$out"; exit 1; }; \
	curl -s 127.0.0.1:4610/metrics | ./lce-tracecheck-cluster -metrics -; \
	curl -s "127.0.0.1:4610/debug/traces?format=jsonl" > trace-router.jsonl; \
	curl -s "127.0.0.1:4611/debug/traces?format=jsonl" > trace-n1.jsonl; \
	curl -s "127.0.0.1:4613/debug/traces?format=jsonl" > trace-n3.jsonl; \
	./lce-tracecheck-cluster -stitch -skew 500ms trace-router.jsonl trace-n1.jsonl trace-n3.jsonl; \
	rm -f /tmp/lce-cluster-smoke-body; \
	echo "cluster smoke: 3-node fleet, kill -9 failover, byte parity vs control, fleet views, merged metrics lint, stitched traces all OK"

ci: build lint race chaos bench obsv-smoke tenant-smoke ops-smoke durable-smoke cluster-smoke
