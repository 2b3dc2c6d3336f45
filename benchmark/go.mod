module cadb/benchmark

go 1.24

require cadb v0.0.0

replace cadb => ../
