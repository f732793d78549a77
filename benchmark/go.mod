module pando/benchmark

go 1.24

require pando v0.0.0

replace pando => ../
