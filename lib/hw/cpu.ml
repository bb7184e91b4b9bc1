type status = Idle | Legacy | In_pal of int

type t = { id : int; mutable status : status; mutable interrupts_enabled : bool }

let create ~id = { id; status = Legacy; interrupts_enabled = true }
