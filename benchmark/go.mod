module lce/benchmark

go 1.22

require lce v0.0.0

replace lce => ../
