module Aig = Step_aig.Aig
module Circuit = Step_aig.Circuit

type t = { aig : Aig.t; f : Aig.lit; support : int list }

let of_edge aig f = { aig; f; support = Aig.support aig f }

let of_output circuit i =
  of_edge circuit.Circuit.aig (Circuit.output circuit i)

let n_vars p = List.length p.support

let negate p = { p with f = Aig.not_ p.f }
