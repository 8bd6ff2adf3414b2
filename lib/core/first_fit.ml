let default_tag = "ff"

let policy =
  {
    (Policy.stateless ~name:"first_fit" (fun ~capacity:_ ~now:_ ~bins ~size ->
         match Fit.first bins ~size with
         | Some v -> Policy.Existing v.Bin.bin_id
         | None -> Policy.New_bin default_tag))
    with
    Policy.first_fit = Some default_tag;
  }
