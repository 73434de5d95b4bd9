module tcss/bench

go 1.22

require tcss v0.0.0

replace tcss => ../
