module xrank/benchmark

go 1.22

require xrank v0.0.0

replace xrank => ../
