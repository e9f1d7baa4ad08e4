module elga/benchmark

go 1.22

require elga v0.0.0

replace elga => ../
