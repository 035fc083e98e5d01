type t = Per_as | Per_neighbor

let vanilla = Per_as
let neighbor_specific = Per_neighbor

let name = function
  | Per_as -> "vanilla"
  | Per_neighbor -> "neighbor-specific"
