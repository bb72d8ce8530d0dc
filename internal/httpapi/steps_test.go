package httpapi

// CycleStep is one call of the 22-call CI test case benchmark/script.go
// drives (reset, apply a small VPC stack, plan against it, trip the two
// documented error classes, destroy it): 10 reads, 10 writes, 2
// expected errors. The table lives in the package's own tests so the
// decoder's tests and the handler tests in httpapi_test share it.
type CycleStep struct {
	Action string // "" is the session-scoped reset route
	Params string
	Status int
}

// Path is the route the benchmark calls for the step.
func (s CycleStep) Path() string {
	if s.Action == "" {
		return "/v2/ec2/reset"
	}
	return "/v2/ec2?Action=" + s.Action
}

// Body is the POST body the benchmark sends for the step.
func (s CycleStep) Body() string {
	if s.Action == "" {
		return ""
	}
	return `{"params":` + s.Params + `}`
}

// CycleSteps is the cycle in order, with the status each step answers.
var CycleSteps = []CycleStep{
	{"", ``, 204},
	{"CreateVpc", `{"cidrBlock":"10.0.0.0/16"}`, 200},
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.1.0/24"}`, 200},
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.2.0/24"}`, 200},
	{"CreateSecurityGroup", `{"vpcId":"vpc-00000001","groupName":"web","description":"bench"}`, 200},
	{"AuthorizeSecurityGroupIngress", `{"groupId":"sg-00000001","ipProtocol":"tcp","fromPort":443,"toPort":443,"cidrIpv4":"0.0.0.0/0"}`, 200},
	{"DescribeVpcs", `{}`, 200},
	{"DescribeSubnets", `{}`, 200},
	{"DescribeSecurityGroups", `{}`, 200},
	{"DescribeSecurityGroupRules", `{}`, 200},
	{"DeleteVpc", `{"vpcId":"vpc-00000001"}`, 400},                              // DependencyViolation
	{"CreateSubnet", `{"vpcId":"vpc-00000001","cidrBlock":"10.0.3.0/29"}`, 400}, // InvalidSubnet.Range
	{"DescribeVpcs", `{}`, 200},
	{"DescribeSubnets", `{}`, 200},
	{"RevokeSecurityGroupRule", `{"securityGroupRuleId":"sgr-00000001"}`, 200},
	{"DeleteSecurityGroup", `{"groupId":"sg-00000001"}`, 200},
	{"DeleteSubnet", `{"subnetId":"subnet-00000001"}`, 200},
	{"DeleteSubnet", `{"subnetId":"subnet-00000002"}`, 200},
	{"DescribeSubnets", `{}`, 200},
	{"DeleteVpc", `{"vpcId":"vpc-00000001"}`, 200},
	{"DescribeVpcs", `{}`, 200},
	{"DescribeSecurityGroups", `{}`, 200},
}
