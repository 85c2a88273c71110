module scholarcloud/benchmark

go 1.22

require scholarcloud v0.0.0

replace scholarcloud => ../
