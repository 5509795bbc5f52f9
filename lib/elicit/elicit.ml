(** Public interface of the [elicit] library: elicited beliefs, opinion
    pooling (including Cooke-style calibration weights) and Delphi-panel
    simulation. *)

module Belief = Belief
module Pool = Pool
module Delphi = Delphi
module Population = Population
module Belief_format = Belief_format
