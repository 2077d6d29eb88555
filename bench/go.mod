module energysched/bench

go 1.24

require energysched v0.0.0

replace energysched => ../
