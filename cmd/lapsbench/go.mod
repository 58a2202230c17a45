module laps/cmd/lapsbench

go 1.22

require laps v0.0.0

replace laps => ../..
