package interp

import (
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// benchSpec is a small EC2-shaped service: a create that writes state,
// a service-level describe that builds payloads, and a no-return
// point describe that exercises the zero-alloc fast path.
const benchSpec = `
service bench {
  sm Vpc {
    idprefix "vpc"
    notfound "InvalidVpcID.NotFound"
    states {
      cidrBlock: str
      state: enum("available", "pending")
    }
    transition CreateVpc(cidrBlock: str) create {
      assert(cidrValid(cidrBlock)) error "InvalidVpc.Range"
      write(cidrBlock, cidrBlock)
      write(state, "available")
      return(vpcId, id(self))
    }
    transition DescribeVpcs() describe {
      return(vpcs, describeAll("Vpc"))
    }
    transition PingVpc(self: ref(Vpc)) describe {}
  }
}
`

// benchEmulator is benchSpec over eight VPCs, compiled or walked.
func benchEmulator(tb testing.TB, compiled bool) cloudapi.Backend {
	return benchEmulatorN(tb, compiled, 8)
}

// benchEmulatorN is benchSpec over n VPCs.
func benchEmulatorN(tb testing.TB, compiled bool, n int) cloudapi.Backend {
	tb.Helper()
	svc, err := spec.Parse(benchSpec)
	if err != nil {
		tb.Fatalf("Parse: %v", err)
	}
	var emu cloudapi.Backend
	if compiled {
		emu, err = New(svc)
	} else {
		emu, err = newWalker(svc)
	}
	if err != nil {
		tb.Fatalf("build emulator: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := emu.Invoke(cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}}); err != nil {
			tb.Fatalf("CreateVpc: %v", err)
		}
	}
	return emu
}

// BenchmarkInvokeDescribe measures the per-call cost of a describe over
// a populated world in the engine and in the reference walker; run
// with -benchmem to see the allocs/op difference compilation buys.
func BenchmarkInvokeDescribe(b *testing.B) {
	req := cloudapi.Request{Action: "DescribeVpcs"}
	for _, mode := range []struct {
		name     string
		compiled bool
	}{{"walk", false}, {"compiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			emu := benchEmulator(b, mode.compiled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Invoke(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvokePoint measures the cheapest possible call — a
// receiver-bound describe with an empty body — isolating dispatch,
// binding, and activation-record cost.
func BenchmarkInvokePoint(b *testing.B) {
	req := cloudapi.Request{Action: "PingVpc", Params: cloudapi.Params{"self": cloudapi.Str("vpc-00000001")}}
	for _, mode := range []struct {
		name     string
		compiled bool
	}{{"walk", false}, {"compiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			emu := benchEmulator(b, mode.compiled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Invoke(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// createsPerWorld bounds the world BenchmarkInvokeCreate creates into.
const createsPerWorld = 256

// BenchmarkInvokeCreate measures the full mutate path: parameter
// coercion, instance allocation, assertion, writes, and a returned
// response. The world is reset outside the timer every createsPerWorld
// creates, so each create meets a world of the same sizes whatever
// -benchtime is, not one that grows with it.
func BenchmarkInvokeCreate(b *testing.B) {
	req := cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}}
	for _, mode := range []struct {
		name     string
		compiled bool
	}{{"walk", false}, {"compiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			emu := benchEmulator(b, mode.compiled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%createsPerWorld == 0 {
					b.StopTimer()
					emu.Reset()
					b.StartTimer()
				}
				if _, err := emu.Invoke(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
