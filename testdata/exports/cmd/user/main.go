package main

import "fixture/internal/lib"

func main() {
	var sized interface{ Size() int } = lib.Box{}
	println(lib.Called(), lib.Live{}.Len(), sized.Size())
}
