// The benchmark is a module of its own, named under the runtime's module
// path so that it may import oopp/internal/...; the runtime is taken from
// the enclosing checkout.
module oopp/bench

go 1.24

require oopp v0.0.0

replace oopp => ../
