module inkfuse/bench

go 1.23

require inkfuse v0.0.0

replace inkfuse => ../
